package repro.data

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import SeasonalGen._

class SeasonalGenSpec extends AnyFunSuite {

  test("generation is deterministic in the seed") {
    val a = rawSeries(re(seed = 1L))
    val b = rawSeries(re(seed = 1L))
    val c = rawSeries(re(seed = 2L))
    assert(a == b)
    assert(a != c)
  }

  test("presets match Table V's series and sequence counts") {
    assert(re().nSeries == 21 && re().nCoarse == 1460)
    assert(sc().nSeries == 14 && sc().nCoarse == 1249)
    assert(inf().nSeries == 25 && inf().nCoarse == 608)
    assert(hfm().nSeries == 24 && hfm().nCoarse == 730)
  }

  test("preset lookup is case-insensitive and validates") {
    assert(preset("re").name == "RE")
    assert(preset("HFM").name == "HFM")
    intercept[IllegalArgumentException](preset("nope"))
  }

  test("season distances land inside each preset's distInterval") {
    for (name <- Seq("RE", "SC", "INF", "HFM"); p <- preset(name).planted) {
      val (lo, hi) = distInterval(name)
      assert(p.seasonDistance >= lo && p.seasonDistance <= hi,
        s"$name distance ${p.seasonDistance} outside [$lo,$hi]")
      // A whole-period skip must fall outside the interval (no skip-chains).
      assert(p.seasonDistance + p.period > hi,
        s"$name double-period distance inside the interval")
    }
  }

  test("symbolic series use the 3-level alphabet with planted activity visible") {
    val spec = inf()
    val syb = symbolic(spec)
    assert(syb.length == spec.fineLength)
    for (s <- syb.series) assert(Decode.symbols(s).toSet.subsetOf(Set("0", "1", "2")))
    // A planted participant has substantially more level-2 activity than a
    // noise-only series (which only has rare spikes).
    val planted = Decode.symbols(Decode.byId(syb, seriesName(0))).count(_ == "2").toDouble / syb.length
    val noiseOnly = Decode.symbols(Decode.byId(syb, seriesName(spec.nSeries - 1))).count(_ == "2").toDouble / syb.length
    assert(planted > 10 * noiseOnly)
    assert(noiseOnly < 0.01)
    // No symbol is granule-universal for any series (the artifact guard).
    val db = SequenceDB.build(syb, spec.m)
    for (e <- db.allEvents) {
      val sup = db.rows.count(_.events.contains(e))
      assert(sup < db.size, s"event $e is universal")
    }
  }

  test("dataset() yields an aligned D_SEQ of the right size") {
    val spec = hfm()
    val (syb, db) = dataset(spec)
    assert(db.size == spec.nCoarse)
    assert(db.m == spec.m)
    assert(syb.ids.size == spec.nSeries)
  }

  test("the planted chain is recovered by E-STPM as a seasonal pattern") {
    val spec = inf()
    val (_, db) = dataset(spec)
    val (dMin, dMax) = distInterval("INF")
    val season = SeasonCfg.fromPercent(db.size, maxPeriodPct = 0.4,
      minDensityPct = 0.75, distMin = dMin, distMax = dMax, minSeason = 8)
    val res = STPM.mine(db, STPMConfig(season, maxK = 2))
    // Group 1: S000 contains S001 (1-slot stagger), period 45, ~13 seasons.
    val key = PatternKey(
      Vector(Event(seriesName(0), "2"), Event(seriesName(1), "2")),
      Vector((Rel.Contains, true)))
    assert(res.keys.contains(key),
      Decode.frequentOfSize(res, 2).map(_.key.render).mkString(", "))
  }

  test("the planted Follows pair is recovered with its relation") {
    val spec = hfm() // followsPair at series 7, 8: slots (1,10) and (14,24)
    val (_, db) = dataset(spec)
    val season = SeasonCfg.fromPercent(db.size, 0.4, 0.75, 30, 75, 8)
    val res = STPM.mine(db, STPMConfig(season, maxK = 2))
    val key = PatternKey(
      Vector(Event(seriesName(7), "2"), Event(seriesName(8), "2")),
      Vector((Rel.Follows, true)))
    assert(res.keys.contains(key),
      Decode.frequentOfSize(res, 2).map(_.key.render).mkString(", "))
  }

  test("scaled() builds block-structured datasets") {
    val spec = scaled("RE", nSeries = 12, nCoarse = 600)
    assert(spec.nSeries == 12)
    assert(spec.planted.size == 2)
    assert(spec.planted.forall(_.participants.size == 3))
    intercept[IllegalArgumentException](scaled("RE", 7, 100))
    intercept[IllegalArgumentException](scaled("??", 12, 100))
  }

  test("participants out of range are rejected") {
    intercept[IllegalArgumentException](Spec("x", 2, 10, 4,
      Vector(Planted(Vector(Participant(5, 1, 4)), 5, 2))))
    intercept[IllegalArgumentException](Spec("x", 2, 10, 4,
      Vector(Planted(Vector(Participant(0, 1, 9)), 5, 2))))
    intercept[IllegalArgumentException](Planted(Vector(Participant(0, 1, 4)), 5, 5))
  }
}
