package repro.core

/** The paper's running example: the symbolic database of Table II (5 series
  * C, D, F, M, N over 42 five-minute granules) and its 15-minute temporal
  * sequence database of Table IV (m = 3, 14 granules), plus the example
  * thresholds of Sec. IV (maxPeriod = 2, minDensity = 3,
  * distInterval = [4, 10], minSeason = 2).
  */
object Fixtures {

  private def row(s: String): Vector[String] =
    s.split("\\s+").toVector.map(_.trim).filter(_.nonEmpty)

  val tableII: SymbolicDB = SymbolicDB(Vector(
    SymbolicSeries("C", row("1 1 0 1 0 0 1 1 0 0 0 0 0 0 0 0 0 0 1 1 1 1 1 1 0 0 0 0 0 0 1 0 0 1 1 0 0 0 0 1 1 0")),
    SymbolicSeries("D", row("1 0 0 1 0 0 1 1 0 1 1 0 0 0 0 0 0 0 1 1 1 1 1 1 0 0 0 0 0 0 1 0 0 1 0 0 1 1 0 1 1 0")),
    SymbolicSeries("F", row("0 0 1 0 1 1 0 0 1 0 0 1 1 1 1 0 0 0 0 0 0 0 0 0 1 1 1 1 1 1 0 0 1 0 0 1 0 0 1 0 0 1")),
    SymbolicSeries("M", row("1 1 1 1 0 0 1 1 1 1 1 0 1 1 1 1 1 1 0 0 0 1 1 1 1 1 1 1 1 1 1 1 1 0 0 0 1 1 1 0 0 0")),
    SymbolicSeries("N", row("1 1 0 1 1 1 1 1 1 1 1 0 1 1 1 1 1 1 0 0 0 0 0 0 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 0 0 0")),
  ))

  /** Table IV: D_SEQ at 15-minute granularity (m = 3). */
  val tableIV: SeqDB = SequenceDB.build(tableII, 3)

  /** The Sec. IV example thresholds. */
  val exampleCfg: SeasonCfg =
    SeasonCfg(maxPeriod = 2, minDensity = 3, distMin = 4, distMax = 10, minSeason = 2)

  val stpmCfg: STPMConfig = STPMConfig(exampleCfg)

  def ev(s: String): Event = Decode.event(s)
}
