package repro.core

/** Symbolization (Def. 3.7): the mapping function f: X → Σ_X encoding each
  * raw value into a symbol by explicit ascending cut points
  * ([[Symbolizer.thresholds]]; the paper's ON/OFF example is a 1-cut
  * instance). Symbols are "0", "1", ... in ascending value order.
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
}
