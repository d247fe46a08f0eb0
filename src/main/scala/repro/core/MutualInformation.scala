package repro.core

/** A symbolic time series (Def. 3.7), stored as its runs: maximal stretches
  * of consecutive positions that hold one symbol. Run `r` covers the 1-based
  * positions after `ends(r - 1)` (after 0 for the first run) up to `ends(r)`
  * and holds `alphabet(codes(r))`; `alphabet` is the sorted set of symbols
  * the series holds, and neighbouring runs hold different symbols.
  */
final class SymbolicSeries private (val id: String, val alphabet: Vector[String],
                                    private[core] val ends: Array[Int],
                                    private[core] val codes: Array[Int]) {
  def length: Int = ends(ends.length - 1)
}

object SymbolicSeries {
  /** The runs of `symbols`, in one pass: a symbol is compared with the one
    * before it by reference first, and only each run's symbol is coded.
    */
  def apply(id: String, symbols: Vector[String]): SymbolicSeries = {
    require(symbols.nonEmpty, s"series $id is empty")
    val ends = Array.newBuilder[Int]
    val runSymbols = Array.newBuilder[String]
    var prev = symbols.head
    var pos = 0
    for (sym <- symbols) {
      if (!(sym eq prev) && sym != prev) { ends += pos; runSymbols += prev; prev = sym }
      pos += 1
    }
    ends += pos; runSymbols += prev
    val runs = runSymbols.result()
    val alphabet = runs.distinct.sorted.toVector
    val code = alphabet.zipWithIndex.toMap
    new SymbolicSeries(id, alphabet, ends.result(), runs.map(code))
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
  * `xSymbols(i)` and Y holds `ySymbols(j)`. The pair's marginals, H (Eq. 2),
  * I (Eq. 4), both NMI directions (Eq. 5) and μ (Eq. 14) all derive from
  * it. [[MutualInformation.joint]] fills it.
  */
final class JointCounts(val xSymbols: Vector[String], val ySymbols: Vector[String],
                        cells: Array[Long]) {
  import MutualInformation.{log2, muForEventPair}
  private val ay = ySymbols.size
  def count(i: Int, j: Int): Long = cells(i * ay + j)
  private val xCounts = Array.tabulate(xSymbols.size)(i => (0 until ay).map(count(i, _)).sum)
  private val yCounts = Array.tabulate(ay)(j => xSymbols.indices.map(count(_, j)).sum)
  val n: Long = xCounts.sum // aligned positions
  private def p(c: Long): Double = c / n.toDouble
  private def entropy(counts: Array[Long]): Double = -counts.map(c => p(c) * log2(p(c))).sum
  lazy val hX: Double = entropy(xCounts)
  lazy val hY: Double = entropy(yCounts)
  /** I(X;Y): the sum of p(x, y) log2(p(x, y) / (p(x) p(y))) over the non-empty cells. */
  lazy val mi: Double = {
    var s = 0.0
    for (i <- xCounts.indices; j <- yCounts.indices if count(i, j) > 0) {
      val pxy = p(count(i, j))
      s += pxy * log2(pxy / (p(xCounts(i)) * p(yCounts(j))))
    }
    s
  }
  /** I/H(X), I/H(Y) (0 for a constant normalizer) and their min (Def. 5.4). */
  def nmiXY: Double = nmi(hX)
  def nmiYX: Double = nmi(hY)
  private def nmi(h: Double): Double = if (h <= 0.0) 0.0 else math.max(0.0, mi / h)
  def minNmi: Double = math.min(nmiXY, nmiYX)

  /** μ: Eq. 14 minimized over all event pairs in both NMI directions
    * (Sec. V-B "Setting the parameters").
    */
  def mu(dseqSize: Int, minSeason: Int, minDensity: Int): Double = {
    def dir(a: Array[Long], b: Array[Long]): Double = {
      val lambda1 = p(a.foldLeft(n)(math.min))
      b.foldLeft(Double.PositiveInfinity)((m, c) =>
        math.min(m, muForEventPair(lambda1, p(c), dseqSize, minSeason, minDensity)))
    }
    math.min(dir(xCounts, yCounts), dir(yCounts, xCounts))
  }
}

/** Entropy / mutual information over symbolic series (Sec. V-A) and the
  * μ threshold of Corollary 1.1 (Eq. 14), all read off [[JointCounts]].
  */
object MutualInformation {
  private val Ln2 = math.log(2.0)
  private[core] def log2(x: Double): Double = math.log(x) / Ln2

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
    new JointCounts(x.alphabet, y.alphabet, cells)
  }

  private[core] def requireAligned(x: String, nx: Long, y: String, ny: Long): Unit =
    require(nx == ny, s"series $x ($nx positions) and $y ($ny positions) are not aligned")

  /** The asymmetric NMI I(X;Y)/H(X) (Eq. 5) — 0 for a constant X. */
  def nmi(x: SymbolicSeries, y: SymbolicSeries): Double = joint(x, y).nmiXY

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

  /** μ for a series pair: [[JointCounts.mu]]. */
  def muForSeriesPair(x: SymbolicSeries, y: SymbolicSeries,
                      dseqSize: Int, minSeason: Int, minDensity: Int): Double =
    joint(x, y).mu(dseqSize, minSeason, minDensity)
}
