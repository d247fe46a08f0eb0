package repro.core

import scala.collection.mutable.ArrayBuilder

/** A symbolic time series (Def. 3.7), stored as its runs: maximal stretches
  * of consecutive positions that hold one symbol. Run `r` covers the 1-based
  * positions after `ends(r - 1)` (after 0 for the first run) up to `ends(r)`
  * and holds `alphabet(codes(r))`; `alphabet` is the sorted set of symbols
  * the series holds, and neighbouring runs hold different symbols.
  * `counts(c)` is the number of positions that hold `alphabet(c)`; the
  * series' entropy and least symbol probability derive from them once.
  */
final class SymbolicSeries private (val id: String, val alphabet: Vector[String],
                                    private[core] val ends: Array[Int],
                                    private[core] val codes: Array[Int],
                                    private[core] val counts: Array[Int]) {
  def length: Int = ends(ends.length - 1)
  /** H(X) (Eq. 2). */
  val entropy: Double = MutualInformation.entropy(counts, length)
  /** λ_min: the least symbol probability, Eq. 14's λ1 when X is the first series. */
  private[core] val lambdaMin: Double = counts.min / length.toDouble
}

object SymbolicSeries {
  /** Symbols copied out of the vector at a time. */
  private val Chunk = 1024

  /** The runs of `symbols`, in one pass over the positions: the vector is
    * copied out in chunks, a symbol is compared with the one before it by
    * reference first, and only each run's symbol is coded, in one pass over
    * the runs that also sums the per-symbol counts. The chunk is an
    * `Array[AnyRef]`, so the copy checks no element's type.
    */
  def apply(id: String, symbols: Vector[String]): SymbolicSeries = {
    require(symbols.nonEmpty, s"series $id is empty")
    val runEnds = new ArrayBuilder.ofInt
    val runSymbols = new ArrayBuilder.ofRef[String]
    val chunk = new Array[AnyRef](Chunk)
    val it = symbols.iterator
    var prev: AnyRef = symbols.head
    var pos = 0
    var got = it.copyToArray(chunk, 0, Chunk)
    while (got > 0) {
      var k = 0
      while (k < got) {
        val sym = chunk(k)
        if (!(sym eq prev) && sym != prev) {
          runEnds.addOne(pos); runSymbols.addOne(prev.asInstanceOf[String]); prev = sym
        }
        pos += 1; k += 1
      }
      got = it.copyToArray(chunk, 0, Chunk)
    }
    runEnds.addOne(pos); runSymbols.addOne(prev.asInstanceOf[String])
    val ends = runEnds.result()
    val runs = runSymbols.result()
    val alphabet = runs.distinct.sorted.toVector
    val code = alphabet.zipWithIndex.toMap
    val codes = new Array[Int](runs.length)
    val counts = new Array[Int](alphabet.size)
    var start = 0
    for (r <- runs.indices) {
      codes(r) = code(runs(r))
      counts(codes(r)) += ends(r) - start
      start = ends(r)
    }
    new SymbolicSeries(id, alphabet, ends, codes, counts)
  }
}

/** The symbolic database D_SYB (Def. 3.8): aligned symbolic series. */
final case class SymbolicDB(series: Vector[SymbolicSeries]) {
  require(series.nonEmpty, "empty symbolic database")
  require(series.forall(_.length == series.head.length),
    "all symbolic series must be aligned (same length)")
  def length: Int = series.head.length
  def ids: Vector[String] = series.map(_.id)
}

/** The α_X × α_Y joint symbol counts of an aligned series pair (X, Y),
  * alphabets sorted: `count(i, j)` is the number of positions where X holds
  * `xSymbols(i)` and Y holds `ySymbols(j)`. I (Eq. 4) and both NMI
  * directions (Eq. 5) derive from it; H (Eq. 2) and μ (Eq. 14) need only
  * the marginals, which the two series carry. [[MutualInformation.joint]]
  * fills it.
  */
final class JointCounts private[core] (x: SymbolicSeries, y: SymbolicSeries, cells: Array[Long]) {
  import MutualInformation.log2
  val xSymbols: Vector[String] = x.alphabet
  val ySymbols: Vector[String] = y.alphabet
  private val ay = ySymbols.size
  def count(i: Int, j: Int): Long = cells(i * ay + j)
  val n: Long = x.length // aligned positions
  private def p(c: Long): Double = c / n.toDouble
  def hX: Double = x.entropy
  def hY: Double = y.entropy
  /** I(X;Y): the sum of p(x, y) log2(p(x, y) / (p(x) p(y))) over the non-empty cells. */
  val mi: Double = {
    var s = 0.0
    var i = 0
    while (i < xSymbols.size) {
      var j = 0
      while (j < ay) {
        val c = count(i, j)
        if (c > 0) {
          val pxy = p(c)
          s += pxy * log2(pxy / (p(x.counts(i)) * p(y.counts(j))))
        }
        j += 1
      }
      i += 1
    }
    s
  }
  /** I/H(X), I/H(Y) (0 for a constant normalizer) and their min (Def. 5.4). */
  def nmiXY: Double = nmi(hX)
  def nmiYX: Double = nmi(hY)
  private def nmi(h: Double): Double = if (h <= 0.0) 0.0 else math.max(0.0, mi / h)
  def minNmi: Double = math.min(nmiXY, nmiYX)

  /** μ (Eq. 14): [[MutualInformation.muForSeriesPair]]. */
  def mu(dseqSize: Int, minSeason: Int, minDensity: Int): Double =
    MutualInformation.muForSeriesPair(x, y, dseqSize, minSeason, minDensity)
}

/** Entropy / mutual information over symbolic series (Sec. V-A), the μ
  * threshold of Corollary 1.1 (Eq. 14) and the entropy screen that rejects
  * a series pair from its marginals alone.
  */
object MutualInformation {
  private val Ln2 = math.log(2.0)
  private[core] def log2(x: Double): Double = math.log(x) / Ln2

  /** H (Eq. 2) of a series whose `n` positions hold the symbols `counts`
    * times each: the negated sum of p log2 p, in symbol order.
    */
  private[core] def entropy(counts: Array[Int], n: Int): Double = {
    var s = 0.0
    for (c <- counts) { val p = c / n.toDouble; s += p * log2(p) }
    -s
  }

  /** The joint counts of an aligned pair, in one merge of their runs: each
    * step covers the positions up to the nearer run end, which all fall in
    * one cell, and moves past every run that ends there.
    */
  def joint(x: SymbolicSeries, y: SymbolicSeries): JointCounts = {
    requireAligned(x.id, x.length, y.id, y.length)
    val ay = y.alphabet.size
    val cells = new Array[Long](x.alphabet.size * ay)
    val ex = x.ends; val cx = x.codes; val ey = y.ends; val cy = y.codes
    var i = 0; var j = 0; var pos = 0
    while (i < ex.length) {
      val end = math.min(ex(i), ey(j))
      cells(cx(i) * ay + cy(j)) += end - pos
      pos = end
      if (ex(i) == end) i += 1
      if (ey(j) == end) j += 1
    }
    new JointCounts(x, y, cells)
  }

  private[core] def requireAligned(x: String, nx: Long, y: String, ny: Long): Unit =
    require(nx == ny, s"series $x ($nx positions) and $y ($ny positions) are not aligned")

  /** The asymmetric NMI I(X;Y)/H(X) (Eq. 5) — 0 for a constant X. */
  def nmi(x: SymbolicSeries, y: SymbolicSeries): Double = joint(x, y).nmiXY

  /** Room left for rounding when the screen compares the entropy ratio
    * with μ: where Y is a function of X, I equals H(Y), and the two are
    * summed in different orders.
    */
  private val ScreenMargin = 1e-9

  /** min(H(X), H(Y)) / max(H(X), H(Y)), and 0 when both series are
    * constant. Since I(X;Y) <= min(H(X), H(Y)), neither NMI direction of
    * the pair exceeds it.
    */
  def entropyRatio(x: SymbolicSeries, y: SymbolicSeries): Double = {
    val hi = math.max(x.entropy, y.entropy)
    if (hi <= 0.0) 0.0 else math.min(x.entropy, y.entropy) / hi
  }

  /** Whether the entropy bound alone shows the pair's min NMI below `mu`
    * (Def. 5.4), so that the pair needs no joint merge.
    */
  def screened(x: SymbolicSeries, y: SymbolicSeries, mu: Double): Boolean =
    entropyRatio(x, y) < mu - ScreenMargin

  /** μ for one event pair (X1 ∈ X_S, Y1 ∈ Y_S) (Eq. 14, appendix form):
    * λ1 = min symbol probability of X_S, λ2 = p(Y1).
    *
    *   ρ = minSeason · minDensity / (λ2 · |D_SEQ|)
    *   μ = 1 − λ2 / (e · ln2 · log2(1/λ1))          if ρ ≤ 1/e
    *   μ = 1 − ρ · λ2 · log2(ρ) / (ln2 · log2(λ1))  otherwise
    *
    * May exceed 1 when the pair can never reach minSeason seasons (then no
    * NMI passes — the pair is pruned outright).
    */
  def muForEventPair(lambda1: Double, lambda2: Double,
                     dseqSize: Int, minSeason: Int, minDensity: Int): Double = {
    require(lambda1 > 0 && lambda1 <= 1, s"bad lambda1=$lambda1")
    require(lambda2 > 0 && lambda2 <= 1, s"bad lambda2=$lambda2")
    if (lambda1 >= 1.0) {
      // Degenerate single-symbol X: log2(1/λ1) = 0; no uncertainty to
      // reduce — demand the impossible so the pair is pruned.
      Double.PositiveInfinity
    } else {
      val rho = minSeason.toDouble * minDensity / (lambda2 * dseqSize)
      if (rho <= 1.0 / math.E)
        1.0 - lambda2 / (math.E * Ln2 * log2(1.0 / lambda1))
      else
        1.0 - rho * lambda2 * log2(rho) / (Ln2 * log2(lambda1))
    }
  }

  /** μ for a series pair: Eq. 14 minimized over all event pairs in both
    * NMI directions (Sec. V-B "Setting the parameters"), from the two
    * series' symbol counts alone.
    */
  def muForSeriesPair(x: SymbolicSeries, y: SymbolicSeries,
                      dseqSize: Int, minSeason: Int, minDensity: Int): Double = {
    requireAligned(x.id, x.length, y.id, y.length)
    def dir(a: SymbolicSeries, b: SymbolicSeries): Double = {
      var m = Double.PositiveInfinity
      var c = 0
      while (c < b.counts.length) {
        m = math.min(m, muForEventPair(a.lambdaMin, b.counts(c) / b.length.toDouble, dseqSize, minSeason, minDensity))
        c += 1
      }
      m
    }
    math.min(dir(x, y), dir(y, x))
  }
}
