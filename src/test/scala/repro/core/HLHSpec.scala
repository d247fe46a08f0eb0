package repro.core

import org.scalatest.funsuite.AnyFunSuite

class HLHSpec extends AnyFunSuite {
  private val db = Fixtures.tableIV
  private val cfg = Fixtures.exampleCfg

  test("HLH1 without pruning indexes every event") {
    val h = HLH1.build(db, cfg, apriori = false)
    assert(h.eh.size == 10)
    assert(h.candidates == h.candidates.sorted)
  }

  test("HLH1 with pruning keeps only candidates") {
    val h = HLH1.build(db, cfg, apriori = true)
    assert(h.eh.size == 8)
    assert(!h.eh.contains(Event("M", "0")))
    assert(!h.eh.contains(Event("N", "0")))
  }

  test("support sets match a direct scan") {
    val h = HLH1.build(db, cfg, apriori = false)
    for ((e, sup) <- h.eh)
      assert(sup == db.rows.filter(_.events.contains(e)).map(_.pos))
  }

  test("GH holds the instances per granule") {
    val h = HLH1.build(db, cfg, apriori = true)
    val c1 = Event("C", "1")
    assert(Decode.instancesAt(h, c1, 1) == Vector(Instance(c1, Interval(1, 2))))
    assert(Decode.instancesAt(h, c1, 4).isEmpty) // C:1 does not occur at H4
    assert(Decode.instancesAt(h, Event("Z", "9"), 1).isEmpty)
  }

  test("entry counts are positive and additive") {
    val h1 = HLH1.build(db, cfg, apriori = true)
    assert(h1.entryCount > 0)
    val stats = new MiningStats
    val h2 = STPM.mineLevel(h1, h1, Fixtures.stpmCfg, stats)
    assert(h2.entryCount > 0)
    assert(h2.groups.nonEmpty && h2.patterns.nonEmpty)
  }

  test("HLHk support lookups") {
    val h1 = HLH1.build(db, cfg, apriori = true)
    val stats = new MiningStats
    val h2 = Decode.groups(h1, STPM.mineLevel(h1, h1, Fixtures.stpmCfg, stats))
    for ((group, patterns) <- h2; p <- patterns) {
      assert(p.key.events == group)
      assert(p.support.nonEmpty && p.support == p.support.sorted)
      assert(p.occs.size == p.support.size && p.occs.forall(_.nonEmpty))
    }
    assert(!h2.contains(Vector(Event("Z", "1"))))
  }

  test("mining counters on the paper's running example") {
    val s = STPM.mine(db, Fixtures.stpmCfg.copy(maxK = 3)).stats
    assert(s.candidateGroups.toMap == Map(2 -> 12, 3 -> 6))
    assert(s.candidatePatterns.toMap == Map(2 -> 12, 3 -> 6))
    assert(s.relationChecks == 447)
    assert(s.occurrences == 267)
    assert(s.peakEntries == 670)
  }

  test("mining counters at maxK 4 on a random database, with and without Apriori pruning") {
    // Pinned counters. Trans-only (apriori = false) exercises the season
    // bound inside the level-3 check; k = 4 the group-level check.
    val db = TestData.randomDb(3, 90, 3, 7L)
    val all = STPM.mine(db, STPMConfig(TestData.lenient, maxK = 4)).stats
    assert(all.candidateGroups.toMap == Map(2 -> 10, 3 -> 6, 4 -> 2))
    assert(all.candidatePatterns.toMap == Map(2 -> 11, 3 -> 7, 4 -> 2))
    assert(all.relationChecks == 562)
    assert(all.occurrences == 343)
    assert(all.peakEntries == 1282)
    val trans = STPM.mine(db, STPMConfig(TestData.lenient, maxK = 4, apriori = false)).stats
    assert(trans.candidateGroups.toMap == Map(2 -> 19, 3 -> 8, 4 -> 5))
    assert(trans.candidatePatterns.toMap == Map(2 -> 44, 3 -> 13, 4 -> 12))
    assert(trans.relationChecks == 776)
    assert(trans.occurrences == 374)
    assert(trans.peakEntries == 1845)
  }
}
