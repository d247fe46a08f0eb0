package repro.core

import org.scalacheck.{Gen, Prop}
import repro.SparkSpec
import repro.baseline.APSGrowth
import repro.core.Relations.RelCfg

/** Every miner against the brute-force [[ReferenceMiner]] on small random
  * databases, at maxK 3 and 4: E-STPM (all four pruning variants) and
  * APS-growth return the reference's pattern keys, supports and seasons;
  * A-STPM returns a subset of its keys; the Spark path returns what the
  * local miner does.
  */
class ReferenceMinerSpec extends SparkSpec with PropSupport {
  import TestData._

  private def table(ps: Vector[FrequentPattern]) =
    ps.map(p => p.key -> ((p.support, p.seasons))).toMap

  private def diff(what: String, got: Map[PatternKey, _], want: Map[PatternKey, _]): String =
    s"$what: missing=${(want.keySet -- got.keySet).map(_.render).take(5)} " +
      s"extra=${(got.keySet -- want.keySet).map(_.render).take(5)}"

  test("the reference miner equals E-STPM on the paper's running example") {
    val cfg = Fixtures.stpmCfg.copy(maxK = 3)
    val ref = table(ReferenceMiner.mine(Fixtures.tableIV, cfg.season, cfg.rel, 3))
    assert(ref.keySet.exists(_.k == 3))
    assert(table(STPM.mine(Fixtures.tableIV, cfg).frequent) == ref)
  }

  private val relCfgs = for (eps <- 0 to 2; dO <- 1 to 3) yield RelCfg(eps, dO)
  private val dbs = for {
    nSeries <- Gen.choose(2, 4)
    nCoarse <- Gen.choose(6, 24)
    m <- Gen.choose(2, 4)
    pOne <- Gen.oneOf(0.15, 0.3, 0.5)
    seed <- Gen.choose(0L, Long.MaxValue)
    maxPeriod <- Gen.choose(1, 3)
    minDensity <- Gen.choose(1, 3)
    minSeason <- Gen.choose(1, 3)
    distMin <- Gen.choose(0, 4)
    distSpan <- Gen.choose(0, 20)
  } yield (randomSyb(nSeries, nCoarse * m, seed, pOne), m,
    SeasonCfg(maxPeriod, minDensity, distMin, distMin + distSpan, minSeason))

  test("E-STPM (four variants), APS-growth and the reference agree; A-STPM is a subset; Spark equals local") {
    var sparkChecks = 0
    checkProp(Prop.forAllNoShrink(dbs) { case (syb, m, season) =>
      val db = SequenceDB.build(syb, m)
      for ((rel, i) <- relCfgs.zipWithIndex) {
        val cfg = STPMConfig(season, rel, maxK = 3)
        val where = s"m=$m $season $rel"
        val ref = table(ReferenceMiner.mine(db, season, rel, 3))
        for (ap <- Seq(true, false); tr <- Seq(true, false)) {
          val got = table(STPM.mine(db, cfg.copy(apriori = ap, transitivity = tr)).frequent)
          assert(got == ref, diff(s"E-STPM apriori=$ap transitivity=$tr $where", got, ref))
        }
        val aps = table(APSGrowth.mine(db, cfg)._1.frequent)
        assert(aps == ref, diff(s"APS-growth $where", aps, ref))
        val approx = ASTPM.mine(syb, db, cfg).mining.keys
        assert(approx.subsetOf(ref.keySet), s"A-STPM $where: extra=${(approx -- ref.keySet).map(_.render)}")
        // The Spark path on the first three databases, one relation setting each.
        if (sparkChecks < 3 && i == 4 * sparkChecks) {
          sparkChecks += 1
          val dist = table(SparkSTPM.mine(spark, db, cfg, parallelism = 3).frequent)
          assert(dist == ref, diff(s"Spark $where", dist, ref))
        }
      }
      true
    }, minTests = 40)
    assert(sparkChecks == 3)
  }

  test("at maxK 4 (one relation setting per database) the miners agree with the reference as at maxK 3") {
    // Levels k >= 4 reuse the level-3 event-pair table: the reference is its oracle.
    var sparkChecked = false
    var withK4 = 0
    checkProp(Prop.forAllNoShrink(dbs, Gen.oneOf(relCfgs)) { case ((syb, m, season), rel) =>
      val db = SequenceDB.build(syb, m)
      val cfg = STPMConfig(season, rel, maxK = 4)
      val where = s"m=$m $season $rel"
      val ref = table(ReferenceMiner.mine(db, season, rel, 4))
      if (ref.keySet.exists(_.k == 4)) withK4 += 1
      for (ap <- Seq(true, false); tr <- Seq(true, false)) {
        val got = table(STPM.mine(db, cfg.copy(apriori = ap, transitivity = tr)).frequent)
        assert(got == ref, diff(s"E-STPM apriori=$ap transitivity=$tr $where", got, ref))
      }
      val aps = table(APSGrowth.mine(db, cfg)._1.frequent)
      assert(aps == ref, diff(s"APS-growth $where", aps, ref))
      val approx = ASTPM.mine(syb, db, cfg).mining.keys
      assert(approx.subsetOf(ref.keySet), s"A-STPM $where: extra=${(approx -- ref.keySet).map(_.render)}")
      if (!sparkChecked) {
        sparkChecked = true
        val dist = table(SparkSTPM.mine(spark, db, cfg, parallelism = 3).frequent)
        assert(dist == ref, diff(s"Spark $where", dist, ref))
      }
      true
    }, minTests = 40)
    assert(sparkChecked && withK4 > 0)
  }
}
