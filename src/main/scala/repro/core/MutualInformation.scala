package repro.core

/** A symbolic time series (Def. 3.7): the symbol at each fine-granularity
  * position, 1-based positions implied by index.
  */
final case class SymbolicSeries(id: String, symbols: Vector[String]) {
  require(symbols.nonEmpty, s"series $id is empty")
  def length: Int = symbols.size
  lazy val alphabet: Vector[String] = symbols.distinct.sorted
  private[core] lazy val codes: Array[Int] = symbols.map(alphabet.zipWithIndex.toMap).toArray
}

/** The symbolic database D_SYB (Def. 3.8): aligned symbolic series. */
final case class SymbolicDB(series: Vector[SymbolicSeries]) {
  require(series.nonEmpty, "empty symbolic database")
  require(series.forall(_.length == series.head.length),
    "all symbolic series must be aligned (same length)")
  def length: Int = series.head.length
  def ids: Vector[String] = series.map(_.id)
  def byId(id: String): SymbolicSeries = series.find(_.id == id)
    .getOrElse(throw new NoSuchElementException(s"no series $id"))
}

/** The α_X × α_Y joint symbol counts of an aligned series pair (X, Y),
  * alphabets sorted: `count(i, j)` is the number of positions where X holds
  * `xSymbols(i)` and Y holds `ySymbols(j)`. The pair's marginals, H (Eq. 2),
  * H(X|Y) (Eq. 3), I (Eq. 4), both NMI directions (Eq. 5) and μ (Eq. 14)
  * all derive from it. [[MutualInformation.joint]] fills it.
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
  def pX: Map[String, Double] = xSymbols.zip(xCounts.map(p)).toMap

  /** Sum of f(p(x, y), p(x), p(y)) over the non-empty cells. */
  private def sumCells(f: (Double, Double, Double) => Double): Double = {
    var s = 0.0
    for (i <- xCounts.indices; j <- yCounts.indices if count(i, j) > 0)
      s += f(p(count(i, j)), p(xCounts(i)), p(yCounts(j)))
    s
  }
  private def entropy(counts: Array[Long]): Double = -counts.map(c => p(c) * log2(p(c))).sum
  lazy val hX: Double = entropy(xCounts)
  lazy val hY: Double = entropy(yCounts)
  def condEntropy: Double = -sumCells((pxy, _, py) => pxy * log2(pxy / py))
  lazy val mi: Double = sumCells((pxy, px, py) => pxy * log2(pxy / (px * py)))
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

  /** The joint counts of an aligned pair, in one pass over their codes. */
  def joint(x: SymbolicSeries, y: SymbolicSeries): JointCounts = {
    requireAligned(x.id, x.length, y.id, y.length)
    val ay = y.alphabet.size
    val cells = new Array[Long](x.alphabet.size * ay)
    val cx = x.codes; val cy = y.codes
    for (i <- cx.indices) cells(cx(i) * ay + cy(i)) += 1
    new JointCounts(x.alphabet, y.alphabet, cells)
  }

  private[core] def requireAligned(x: String, nx: Long, y: String, ny: Long): Unit =
    require(nx == ny, s"series $x ($nx positions) and $y ($ny positions) are not aligned")

  /** p(x), H(X) (Eq. 2), H(X|Y) (Eq. 3), I(X;Y) (Eq. 4) in bits, and the
    * asymmetric NMI I(X;Y)/H(X) (Eq. 5) — 0 for a constant X.
    */
  def probs(x: SymbolicSeries): Map[String, Double] = joint(x, x).pX
  def entropy(x: SymbolicSeries): Double = joint(x, x).hX
  def condEntropy(x: SymbolicSeries, y: SymbolicSeries): Double = joint(x, y).condEntropy
  def mi(x: SymbolicSeries, y: SymbolicSeries): Double = joint(x, y).mi
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
