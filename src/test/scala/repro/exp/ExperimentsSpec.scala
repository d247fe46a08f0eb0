package repro.exp

import org.scalatest.funsuite.AnyFunSuite
import repro.data.SeasonalGen

class ExperimentsSpec extends AnyFunSuite {

  test("TableResult renders aligned markdown-ish tables") {
    val t = TableResult("T", Vector("a", "bb"), Vector(Vector("1", "2"), Vector("33", "4")),
      Vector("n1"))
    val r = t.render
    assert(r.contains("== T =="))
    assert(r.contains("| a  | bb |"))
    assert(r.contains("| 33 | 4  |"))
    assert(r.contains("note: n1"))
  }

  test("cfgOf applies the preset distInterval and percent conversion") {
    val c = Experiments.cfgOf(608, "INF", 0.4, 0.75, 8)
    assert(c.maxPeriod == 3)  // ceil(608 * 0.004)
    assert(c.minDensity == 5) // ceil(608 * 0.0075)
    assert((c.distMin, c.distMax) == SeasonalGen.distInterval("INF"))
    assert(c.minSeason == 8)
  }

  test("tableV reports the configured dataset shapes") {
    val t = Experiments.tableV(Seq("SC"))
    assert(t.rows.size == 1)
    assert(t.rows.head(1) == "1249")
    assert(t.rows.head(2) == "14")
  }

  test("patternCounts with a single-cell grid") {
    val t = Experiments.patternCounts("SC", maxPeriods = Seq(0.4),
      minSeasons = Seq(8), minDensities = Seq(0.75))
    assert(t.rows.size == 1)
    assert(t.rows.head.size == 2)
    assert(t.rows.head(1).toInt > 0)
  }

  test("tableVII single-cell accuracy is a valid percentage") {
    val t = Experiments.tableVII(names = Seq("SC"), minSeasons = Seq(8),
      minDensities = Seq(0.75))
    val v = t.rows.head(1).toDouble
    assert(v >= 0.0 && v <= 100.0)
  }

  test("scaledAstpm cells feed both Table XI and Table XII") {
    val cells = Experiments.scaledAstpm("INF", sizes = Seq(12), nCoarse = 300,
      configs = Seq((8, 0.75)))
    assert(cells.size == 1)
    val t11 = Experiments.tableXI("INF", cells)
    val t12 = Experiments.tableXII("INF", cells)
    assert(t11.rows.size == 1 && t12.rows.size == 1)
    assert(t11.rows.head.head == "12")
    assert(t12.rows.head(1).toDouble >= 0.0)
  }

  test("epsilonSensitivity baseline row has zero loss") {
    val t = Experiments.epsilonSensitivity(names = Seq("SC"), epsilons = Seq(0, 1))
    assert(t.rows.head(3).toDouble == 0.0)
  }

  test("pruningAblation returns all four variants with sane counters") {
    val t = Experiments.pruningAblation(nSeries = 6, nCoarse = 200,
      minSeasons = Seq(4), maxK = 2)
    assert(t.rows.size == 1)
    val r = t.rows.head
    // checks: NoPrune >= All
    assert(r(2).toLong >= r(8).toLong)
  }
}
