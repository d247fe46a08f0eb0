package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.SeasonalGen
import repro.exp.Experiments

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

  /** HLH_1 derived from D_SEQ's rendered rows by event: the admitted
    * events, sorted; each granule's admitted instances as (index among
    * them, start, end) triples; and each admitted event's support set.
    */
  private def fromRows(db: SeqDB, cfg: SeasonCfg, apriori: Boolean, keep: Event => Boolean) = {
    val rows = db.rows
    val support = rows.flatMap(r => r.events.map(_ -> r.pos)).groupMap(_._1)(_._2)
    val kept = support.keys.toVector.sorted.filter(e => keep(e) &&
      (!apriori || Seasonality.isCandidate(support(e).toArray, support(e).size, cfg)))
    val id = kept.zipWithIndex.toMap
    val granules = rows.map(_.instances.filter(i => id.contains(i.event)).flatMap(i => Vector(id(i.event), i.start, i.end)))
    (kept, granules, kept.map(support))
  }

  test("HLH1.build equals a derivation from D_SEQ's rows by event") {
    val random = TestData.randomDb(5, 120, 4, 3L)
    val noS2 = (e: Event) => e.series != "S2"
    assert(random.allEvents.exists(!noS2(_)))
    for ((db, cfg, keep) <- Seq((db, cfg, (_: Event) => true), (random, TestData.lenient, noS2));
         apriori <- Seq(true, false)) {
      val h = HLH1.build(db, cfg, apriori, keep)
      val (kept, granules, supports) = fromRows(db, cfg, apriori, keep)
      assert(kept.nonEmpty, s"apriori=$apriori")
      assert(h.candidates == kept)
      assert(h.granules.toVector.map(_.toVector) == granules)
      assert(h.candidates.indices.map(h.support(_).toVector) == supports)
    }
  }

  test("GH holds the instances per granule") {
    val h = HLH1.build(db, cfg, apriori = true)
    val c1 = Event("C", "1")
    assert(Decode.instancesAt(h, c1, 1) == Vector(Instance(c1, Interval(1, 2))))
    assert(Decode.instancesAt(h, c1, 4).isEmpty) // C:1 does not occur at H4
    assert(Decode.instancesAt(h, Event("Z", "9"), 1).isEmpty)
  }

  test("the granule index gives every candidate event's instances at every granule") {
    // 91 positions at m 3: 31 granules, the last a partial one of 1 position.
    val random = TestData.randomDb(3, 91, 3, 7L)
    assert(random.size == 31 && random.rows.last.instances.forall(_.interval == Interval(91, 91)))
    for (db <- Seq(db, random); apriori <- Seq(true, false)) {
      val h = HLH1.build(db, cfg, apriori)
      var absent = 0
      for (e <- h.candidates.indices) {
        val at = h.index(e)
        val occ = h.groups(e).patterns(0).occ
        assert(at.length == db.size + 2 && at(0) == 0 && at(1) == 0 && at(db.size + 1) == occ.length)
        for (g <- 1 to db.size) {
          val viaIndex = (at(g) until at(g + 1)).map(x => Decode.instance(h, g, occ(x))).toVector
          assert(viaIndex == Decode.instancesOf(db.row(g), h.candidates(e)), s"${h.candidates(e)} at granule $g")
          if (viaIndex.isEmpty) absent += 1
        }
        assert(h.restrict((1 to db.size).toArray, e).toVector == h.support(e).toVector)
      }
      assert(absent > 0)
    }
  }

  test("the granule index is built on first use and is not serialized") {
    def bytes(x: AnyRef): Array[Byte] = {
      val out = new java.io.ByteArrayOutputStream
      val os = new java.io.ObjectOutputStream(out)
      os.writeObject(x); os.close()
      out.toByteArray
    }
    val h = HLH1.build(db, cfg, apriori = true)
    val before = bytes(h)
    val index = h.index.map(_.toVector).toVector
    assert(bytes(h).length == before.length)
    val copy = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(before)).readObject().asInstanceOf[HLH1]
    assert(copy.index.map(_.toVector).toVector == index)
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
    assert(s.pairRejected.toMap == Map(3 -> 38))
    assert(s.relationChecks == 312)
    assert(s.occurrences == 267)
    assert(s.peakEntries == 670)
  }

  test("mining counters at maxK 4 on a random database, with and without Apriori pruning") {
    // Pinned counters. Trans-only (apriori = false) exercises the season
    // bound inside the level-3 event-pair table and pair supports, which
    // k = 4 reuses.
    val db = TestData.randomDb(3, 90, 3, 7L)
    val all = STPM.mine(db, STPMConfig(TestData.lenient, maxK = 4)).stats
    assert(all.candidateGroups.toMap == Map(2 -> 10, 3 -> 6, 4 -> 2))
    assert(all.candidatePatterns.toMap == Map(2 -> 11, 3 -> 7, 4 -> 2))
    assert(all.pairRejected.toMap == Map(3 -> 16, 4 -> 4))
    assert(all.relationChecks == 460)
    assert(all.occurrences == 333)
    assert(all.peakEntries == 1282)
    val trans = STPM.mine(db, STPMConfig(TestData.lenient, maxK = 4, apriori = false)).stats
    assert(trans.candidateGroups.toMap == Map(2 -> 19, 3 -> 8, 4 -> 4))
    assert(trans.candidatePatterns.toMap == Map(2 -> 44, 3 -> 13, 4 -> 5))
    assert(trans.pairRejected.toMap == Map(3 -> 35, 4 -> 6))
    assert(trans.relationChecks == 524)
    assert(trans.occurrences == 362)
    assert(trans.peakEntries == 1845)
  }

  test("mining counters on the RE analog with 12 series, seed 42, at maxK 3") {
    val (_, db) = SeasonalGen.dataset(SeasonalGen.re(42L).copy(nSeries = 12))
    val s = STPM.mine(db, STPMConfig(Experiments.cfgOf(db.size, "RE", 0.4, 0.75, 8), maxK = 3)).stats
    assert(s.totalEvents == 36 && s.candidateEvents == 33)
    assert(s.candidateGroups.toMap == Map(2 -> 264, 3 -> 288))
    assert(s.candidatePatterns.toMap == Map(2 -> 265, 3 -> 288))
    assert(s.pairRejected.toMap == Map(3 -> 2255))
    assert(s.relationChecks == 287300)
    assert(s.occurrences == 206128)
    assert(s.peakEntries == 597546)
  }
}
