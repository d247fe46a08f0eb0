package repro.baseline

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

/** Cross-validation: the APS-growth baseline and E-STPM must return the
  * same frequent seasonal patterns (both apply the exact final check over
  * sound prunings — DESIGN.md §4), while doing different amounts of work.
  */
class APSGrowthSpec extends AnyFunSuite {
  import repro.core.TestData._

  test("baseline equals E-STPM on the paper's running example") {
    val db = Fixtures.tableIV
    val cfg = Fixtures.stpmCfg.copy(maxK = 3)
    val exact = STPM.mine(db, cfg)
    val (baseline, _) = APSGrowth.mine(db, cfg)
    assert(baseline.keys == exact.keys,
      s"missing=${(exact.keys -- baseline.keys).map(_.render)}\n" +
        s"extra=${(baseline.keys -- exact.keys).map(_.render)}")
  }

  test("baseline equals E-STPM on random databases (incl. self-pairs)") {
    for (seed <- 1L to 6L; maxK <- Seq(3, 4)) {
      val db = randomDb(3, 90, 3, seed)
      val cfg = STPMConfig(lenient, maxK = maxK)
      val exact = STPM.mine(db, cfg)
      val (baseline, _) = APSGrowth.mine(db, cfg)
      assert(baseline.keys == exact.keys, s"seed=$seed maxK=$maxK\n" +
        s"  missing=${(exact.keys -- baseline.keys).map(_.render).take(5)}\n" +
        s"  extra=${(baseline.keys -- exact.keys).map(_.render).take(5)}")
    }
  }

  test("baseline support sets and seasons match E-STPM's") {
    val db = randomDb(3, 90, 3, 17L)
    val cfg = STPMConfig(lenient, maxK = 3)
    val exact = STPM.mine(db, cfg).frequent.map(p => p.key -> p).toMap
    val (baseline, _) = APSGrowth.mine(db, cfg)
    for (p <- baseline.frequent) {
      val ref = exact(p.key)
      assert(p.support == ref.support, s"${p.key.render} support differs")
      assert(p.seasons == ref.seasons, s"${p.key.render} seasons differ")
    }
  }

  test("baseline does more relation checks than pruned E-STPM") {
    val db = randomDb(4, 120, 3, 23L)
    val cfg = STPMConfig(lenient, maxK = 3)
    val exact = STPM.mine(db, cfg)
    val (_, stats) = APSGrowth.mine(db, cfg)
    assert(stats.relationChecks >= exact.stats.relationChecks,
      s"baseline=${stats.relationChecks} estpm=${exact.stats.relationChecks}")
  }

  /** APS-growth's work counters. Phase 2 counts k(k-1)/2 relation checks
    * per complete instance tuple, so they do not depend on how instances
    * are stored.
    */
  private def assertWork(db: SeqDB, cfg: STPMConfig, checks: Long, multisets: Long, groups: Map[Int, Int],
                         patterns: Map[Int, Int], events: (Int, Int), peakEntries: Long): Unit = {
    val (res, stats) = APSGrowth.mine(db, cfg)
    val s = res.stats
    assert(stats.relationChecks == checks && s.relationChecks == checks, s"$s")
    assert(stats.multisetsTried == multisets, s"$s")
    assert(s.candidateGroups.toMap == groups && s.candidatePatterns.toMap == patterns, s"$s")
    assert((s.candidateEvents, s.totalEvents) == events && s.peakEntries == peakEntries, s"$s")
  }

  test("work counters are pinned on the running example") {
    assertWork(Fixtures.tableIV, Fixtures.stpmCfg.copy(maxK = 3), checks = 1258, multisets = 139,
      groups = Map(2 -> 34, 3 -> 105), patterns = Map(2 -> 53, 3 -> 143), events = (8, 10), peakEntries = 119)
  }

  test("work counters are pinned on a random database") {
    assertWork(randomDb(3, 90, 3, 17L), STPMConfig(lenient, maxK = 3), checks = 894, multisets = 70,
      groups = Map(2 -> 20, 3 -> 50), patterns = Map(2 -> 41, 3 -> 106), events = (6, 6), peakEntries = 43)
  }

  test("an empty database and one with no candidate event mine to nothing") {
    val cfg = Fixtures.stpmCfg.copy(maxK = 3)
    val noEvent = cfg.copy(season = cfg.season.copy(minSeason = Fixtures.tableIV.size + 1))
    for ((db, c) <- Seq((SeqDB.assemble(1, Vector.empty, 0)(_ => ()), cfg), (Fixtures.tableIV, noEvent))) {
      val (res, stats) = APSGrowth.mine(db, c)
      assert(res.frequent.isEmpty && stats.relationChecks == 0, s"${res.stats}")
    }
  }

  test("multiset expansion: sets, self-pairs and triples") {
    def e(s: String) = Decode.event(s)
    val bySize = Map(
      1 -> Vector(Vector(e("A:1")), Vector(e("B:1"))),
      2 -> Vector(Vector(e("A:1"), e("B:1"))))
    val k2 = APSGrowth.expandMultisets(bySize, 2)
    assert(k2.toSet == Set(
      Vector(e("A:1"), e("A:1")), Vector(e("B:1"), e("B:1")),
      Vector(e("A:1"), e("B:1"))))
    val k3 = APSGrowth.expandMultisets(bySize, 3)
    assert(k3.toSet == Set(
      Vector(e("A:1"), e("A:1"), e("A:1")), Vector(e("B:1"), e("B:1"), e("B:1")),
      Vector(e("A:1"), e("A:1"), e("B:1")), Vector(e("A:1"), e("B:1"), e("B:1"))))
  }

  test("compositions enumerate positive integer splits") {
    assert(APSGrowth.compositions(3, 1) == Vector(Vector(3)))
    assert(APSGrowth.compositions(3, 2).toSet == Set(Vector(1, 2), Vector(2, 1)))
    assert(APSGrowth.compositions(3, 3) == Vector(Vector(1, 1, 1)))
    assert(APSGrowth.compositions(2, 3).isEmpty)
  }
}
