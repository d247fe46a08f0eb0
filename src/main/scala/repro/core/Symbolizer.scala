package repro.core

/** Symbolization (Def. 3.7): the mapping function f: X → Σ_X encoding each
  * raw value into a symbol. Two standard schemes are provided:
  *
  * - [[Symbolizer.thresholds]]: explicit ascending cut points (the paper's
  *   ON/OFF example is a 1-cut instance);
  * - [[Symbolizer.quantiles]]: SAX-style equi-depth binning computed from
  *   the series itself (Lin et al. 2003, as cited in Def. 3.7).
  *
  * Symbols are "0", "1", ... in ascending value order.
  */
object Symbolizer {

  /** Encode with explicit cut points: value < cuts(0) → "0", value in
    * [cuts(i-1), cuts(i)) → "i", value >= last cut → cuts.size as symbol.
    */
  def thresholds(values: Vector[Double], cuts: Vector[Double]): Vector[String] = {
    require(cuts.nonEmpty && cuts.sliding(2).forall {
      case Seq(a, b) => a < b
      case _         => true
    }, "cut points must be non-empty and strictly ascending")
    var pos = 0
    values.map { v => pos += 1; symbolOf(v, cuts, pos) }
  }

  /** The symbols of the first 256 bins, shared: encoding allocates nothing. */
  private val binSymbols = Array.tabulate(256)(_.toString)

  /** The symbol of one raw value: the number of ascending `cuts` at or
    * below it, as a string shared by every value of that bin. A NaN value
    * has no symbol and is rejected with an `IllegalArgumentException`
    * naming its position (1-based) and, when given, its series.
    */
  def symbolOf(value: Double, cuts: Vector[Double], pos: Int, series: String = ""): String = {
    if (value.isNaN) {
      val at = if (series.isEmpty) s"position $pos" else s"series $series, position $pos"
      throw new IllegalArgumentException(s"NaN value at $at has no symbol")
    }
    var i = 0
    while (i < cuts.size && value >= cuts(i)) i += 1
    if (i < binSymbols.length) binSymbols(i) else i.toString
  }

  /** Equi-depth cut points for an `alpha`-symbol alphabet (SAX-like, but on
    * the empirical distribution rather than a Gaussian assumption — exact
    * and deterministic).
    */
  def quantileCuts(values: Vector[Double], alpha: Int): Vector[Double] = {
    require(alpha >= 2, "alphabet size must be >= 2")
    val sorted = values.sorted
    (1 until alpha).toVector
      .map(i => sorted(((i.toLong * sorted.size) / alpha).toInt.min(sorted.size - 1)))
      .distinct
  }

  /** Quantile-binned symbolization with an `alpha`-symbol alphabet. */
  def quantiles(values: Vector[Double], alpha: Int): Vector[String] =
    thresholds(values, quantileCuts(values, alpha))

  /** Symbolize a whole raw database into D_SYB with per-series quantile
    * alphabets.
    */
  def symbolicDB(raw: Vector[(String, Vector[Double])], alpha: Int): SymbolicDB =
    SymbolicDB(raw.map { case (id, vs) => SymbolicSeries(id, quantiles(vs, alpha)) })
}
