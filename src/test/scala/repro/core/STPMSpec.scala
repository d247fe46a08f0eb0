package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.core.Relations.RelCfg

object TestData {
  /** Random small symbolic database, deterministic in the seed. Sparse
    * activations (default p = 0.15) so support sets have gaps and seasons
    * actually form.
    */
  def randomSyb(nSeries: Int, length: Int, seed: Long, pOne: Double = 0.15): SymbolicDB = {
    val rnd = new Random(seed)
    SymbolicDB((0 until nSeries).toVector.map { s =>
      SymbolicSeries(s"S$s",
        Vector.fill(length)(if (rnd.nextDouble() < pOne) "1" else "0"))
    })
  }

  def randomDb(nSeries: Int, length: Int, m: Int, seed: Long): SeqDB =
    SequenceDB.build(randomSyb(nSeries, length, seed), m)

  /** Lenient thresholds so small random data yields patterns. */
  val lenient: SeasonCfg = SeasonCfg(maxPeriod = 3, minDensity = 2,
    distMin = 1, distMax = 30, minSeason = 2)
}

class STPMSpec extends AnyFunSuite {
  import TestData._

  test("pruning invariance: all four flag combinations agree (soundness)") {
    for (seed <- 1L to 4L; maxK <- Seq(3, 4)) {
      val db = randomDb(3, 60, 3, seed)
      val base = STPMConfig(lenient, maxK = maxK)
      val results = for {
        ap <- Seq(true, false)
        tr <- Seq(true, false)
      } yield ((ap, tr), STPM.mine(db, base.copy(apriori = ap, transitivity = tr)).keys)
      val reference = results.head._2
      for (((flags, keys)) <- results.tail)
        assert(keys == reference, s"seed=$seed maxK=$maxK flags=$flags diverged:\n" +
          s"  only-in-ref: ${(reference -- keys).map(_.render).take(5)}\n" +
          s"  only-in-run: ${(keys -- reference).map(_.render).take(5)}")
    }
  }

  test("pruned runs do no more work than unpruned runs") {
    val db = randomDb(3, 90, 3, 7L)
    val base = STPMConfig(lenient, maxK = 3)
    val all = STPM.mine(db, base)
    val none = STPM.mine(db, base.copy(apriori = false, transitivity = false))
    assert(all.stats.relationChecks <= none.stats.relationChecks)
  }

  test("self-pair patterns: an event relates to itself across runs") {
    // Active granules 1,2,5,6 toggle "1,0,1" (two X:1 runs per granule);
    // granules 3,4,7,8 are silent — two seasons {1,2} and {5,6}.
    val active = Vector("1", "0", "1"); val silent = Vector("0", "0", "0")
    val syb = SymbolicDB(Vector(SymbolicSeries("X",
      Vector(active, active, silent, silent, active, active, silent, silent).flatten)))
    val db = SequenceDB.build(syb, 3)
    val cfg = STPMConfig(SeasonCfg(2, 2, 1, 10, 2), maxK = 2)
    val res = STPM.mine(db, cfg)
    val selfFollows = Decode.frequentOfSize(res, 2).find(p =>
      p.key.events == Vector(Event("X", "1"), Event("X", "1")))
    assert(selfFollows.isDefined, res.frequent.map(_.key.render).mkString(", "))
    assert(selfFollows.get.key.rels == Vector((Rel.Follows, true)))
    assert(selfFollows.get.support == Vector(1, 2, 5, 6))
  }

  test("self-extension (ek == the group's last event) at levels 2 and 3 equals the reference miner") {
    // Active granules hold three X:1 runs ("1,0,1,0,1"), and Y:1 spans
    // positions 2-4: groups (X:1, X:1), (X:1, X:1, X:1) and (X:1, X:1, Y:1).
    val on = Vector("1", "0", "1", "0", "1"); val off = Vector.fill(5)("0")
    val active = Set(1, 2, 3, 7, 8, 9)
    val syb = SymbolicDB(Vector(
      SymbolicSeries("X", (1 to 12).toVector.flatMap(g => if (active(g)) on else off)),
      SymbolicSeries("Y", (1 to 12).toVector.flatMap(g => if (active(g)) Vector("0", "1", "1", "1", "0") else off))))
    val db = SequenceDB.build(syb, 5)
    val cfg = STPMConfig(SeasonCfg(2, 2, 1, 10, 2), maxK = 3)
    val hlh1 = HLH1.build(db, cfg.season, apriori = true)
    val x = hlh1.candidates.indexOf(Event("X", "1"))
    val h2 = STPM.mineLevel(hlh1, hlh1, cfg, new MiningStats)
    val h3 = STPM.mineLevel(hlh1, h2, cfg, new MiningStats)
    assert(h2.groups.exists(_.group.toVector == Vector(x, x)))
    assert(h3.groups.exists(_.group.toVector == Vector(x, x, x)))
    def table(ps: Vector[FrequentPattern]) = ps.map(p => p.key -> ((p.support, p.seasons))).toMap
    val mined = table(STPM.mine(db, cfg).frequent)
    assert(mined.keySet.exists(_.events == Vector.fill(3)(Event("X", "1"))))
    assert(mined == table(ReferenceMiner.mine(db, cfg.season, cfg.rel, 3)))
  }

  test("3-event patterns are found with consistent sub-patterns") {
    // Staggered spans in active granules (two seasons: {1,2,3}, {7,8,9}).
    val activeGranules = Set(1, 2, 3, 7, 8, 9)
    def series(id: String, pattern: Vector[String]) =
      SymbolicSeries(id, (1 to 12).toVector.flatMap(g =>
        if (activeGranules(g)) pattern else Vector.fill(4)("0")))
    val syb = SymbolicDB(Vector(
      series("A", Vector("1", "1", "1", "1")),
      series("B", Vector("0", "1", "1", "1")),
      series("C", Vector("0", "0", "1", "1"))))
    val db = SequenceDB.build(syb, 4)
    val cfg = STPMConfig(SeasonCfg(2, 2, 1, 10, 2), maxK = 3)
    val res = STPM.mine(db, cfg)
    val k3 = Decode.frequentOfSize(res, 3)
    assert(k3.nonEmpty, res.frequent.map(_.key.render).mkString(", "))
    // A [1,4] contains B [2,4] contains C [3,4] in every active granule.
    val key = PatternKey(
      Vector(Event("A", "1"), Event("B", "1"), Event("C", "1")),
      Vector((Rel.Contains, true), (Rel.Contains, true), (Rel.Contains, true)))
    assert(k3.exists(_.key == key), k3.map(_.key.render).mkString(", "))
  }

  test("incremental pattern keys equal direct ofOccurrence computation") {
    val db = randomDb(3, 60, 3, 11L)
    // maxK 5: levels 2–4 are inner levels, which keep their occurrences.
    val cfg = STPMConfig(lenient, maxK = 5)
    val hlh1 = HLH1.build(db, cfg.season, apriori = true)
    var prev: HLHk = hlh1
    for (k <- 2 to 4) {
      val stats = new MiningStats
      val hlhk = STPM.mineLevel(hlh1, prev, cfg, stats)
      var tuples = 0
      for (p <- Decode.patterns(hlh1, hlhk); (g, occs) <- p.support.zip(p.occs); t <- occs) {
        assert(OccurrenceKey.ofOccurrence(p.key.events, t, cfg.rel) == p.key,
          s"occurrence $t of ${p.key.render} at granule $g disagrees")
        tuples += 1
      }
      assert(tuples > 0, s"level $k has no occurrences to check")
      prev = hlhk
    }
  }

  test("patterns at k = maxK keep their full support and no tuples; the work counted is the same") {
    for (seed <- 1L to 3L) {
      val db = randomDb(4, 90, 3, seed)
      val hlh1 = HLH1.build(db, lenient, apriori = true)
      val h2 = STPM.mineLevel(hlh1, hlh1, STPMConfig(lenient, maxK = 3), new MiningStats)
      assert(h2.patterns.forall(_.occ.nonEmpty)) // level 2 is not the last at maxK 3
      val lastStats, innerStats = new MiningStats
      val last = STPM.mineLevel(hlh1, h2, STPMConfig(lenient, maxK = 3), lastStats)
      val inner = STPM.mineLevel(hlh1, h2, STPMConfig(lenient, maxK = 4), innerStats)
      assert(last.patterns.nonEmpty, s"seed=$seed")
      assert(last.groups.map(_.group.toVector) == inner.groups.map(_.group.toVector))
      assert(last.patterns.size == inner.patterns.size)
      for ((l, i) <- last.patterns.zip(inner.patterns)) {
        assert(l.rels.toVector == i.rels.toVector && l.support.toVector == i.support.toVector)
        assert(l.occ.isEmpty && l.occOff.toVector == Vector.fill(l.support.length + 1)(0))
        assert(i.occ.nonEmpty)
      }
      assert(lastStats.occurrences > 0 && lastStats.occurrences == innerStats.occurrences)
      assert(lastStats.relationChecks == innerStats.relationChecks)
      assert(last.entryCount < inner.entryCount)
    }
  }

  test("a distMax cut alone rejects a group that maxSeason admits; the output equals the reference") {
    // Granules 1–30, one position each. E:1 holds at {1,2,3} and
    // {21,22,23}: 6 / minDensity 3 = 2 seasons by maxSeason, but the gap of
    // 18 exceeds distMax 10, so no two seasons chain and HLH_1 drops E:1.
    // A:1 and B:1 add a block 5 from one of those, so each is a candidate,
    // but they meet at E:1's granules only: their group is cut the same way.
    // C:1 and D:1 hold at {1,2,3} and {8,9,10}, 5 apart: a frequent pair.
    def series(id: String, on: Set[Int]) = SymbolicSeries(id, (1 to 30).toVector.map(g => if (on(g)) "1" else "0"))
    val far = Set(1, 2, 3, 21, 22, 23); val near = Set(1, 2, 3, 8, 9, 10)
    val db = SequenceDB.build(SymbolicDB(Vector(series("A", far ++ Set(8, 9, 10)),
      series("B", far ++ Set(28, 29, 30)), series("C", near), series("D", near), series("E", far))), 1)
    val cfg = STPMConfig(Fixtures.exampleCfg, maxK = 3)
    val farSup = far.toArray.sorted
    assert(farSup.length / cfg.season.minDensity >= cfg.season.minSeason)
    assert(Seasonality.seasonBound(farSup, farSup.length, cfg.season) == 1)
    val hlh1 = HLH1.build(db, cfg.season, apriori = true)
    assert(!hlh1.eh.contains(Fixtures.ev("E:1")))
    assert(HLH1.build(db, cfg.season, apriori = false).eh.contains(Fixtures.ev("E:1")))
    assert(hlh1.eh.contains(Fixtures.ev("A:1")) && hlh1.eh.contains(Fixtures.ev("B:1")))
    def pairs(c: STPMConfig) = Decode.groups(hlh1, STPM.mineLevel(hlh1, hlh1, c, new MiningStats)).keySet
    val ab = Vector(Fixtures.ev("A:1"), Fixtures.ev("B:1"))
    assert(!pairs(cfg).contains(ab))
    assert(pairs(cfg).contains(Vector(Fixtures.ev("C:1"), Fixtures.ev("D:1"))))
    assert(pairs(cfg.copy(apriori = false)).contains(ab))
    def table(ps: Vector[FrequentPattern]) = ps.map(p => p.key -> ((p.support, p.seasons))).toMap
    val mined = table(STPM.mine(db, cfg).frequent)
    assert(mined.keySet.exists(_.k == 2))
    assert(mined == table(ReferenceMiner.mine(db, cfg.season, cfg.rel, 3)))
  }

  test("property: a task the pair-support test rejects mines no admitted pattern without it; any other mines the same") {
    var rejected, admittedTasks = 0
    for (seed <- 1L to 6L; maxK <- Seq(3, 4); ap <- Seq(true, false); tr <- Seq(true, false)) {
      val db = randomDb(4, 90, 3, seed)
      val cfg = STPMConfig(lenient, maxK = maxK, apriori = ap, transitivity = tr)
      val hlh1 = HLH1.build(db, cfg.season, cfg.apriori)
      var prev = STPM.mineLevel(hlh1, hlh1, cfg, new MiningStats)
      for (k <- 3 to maxK) {
        val level = STPM.mineLevel(hlh1, prev, cfg, new MiningStats)
        assert(level.pairSup.isEmpty || tr)
        for (parent <- prev.groups; ek <- parent.group.last until hlh1.candidates.size) {
          val at = s"seed=$seed maxK=$maxK apriori=$ap transitivity=$tr k=$k group=${parent.group.toVector :+ ek}"
          // The same kernel with the same code table and no pair supports.
          val full = STPM.mineGroup(hlh1, parent, ek, level.pairRels, Array.emptyLongArray, cfg)
          STPM.mineGroup(hlh1, parent, ek, level.pairRels, level.pairSup, cfg) match {
            case None =>
              if (full.nonEmpty) rejected += 1
              assert(full.forall(_.patterns.isEmpty), at)
            case Some(gm) =>
              admittedTasks += 1
              val f = full.getOrElse(fail(at))
              assert(gm.sup.toVector == f.sup.toVector, at)
              assert(gm.patterns.map(p => (p.rels.toVector, p.support.toVector, p.occOff.toVector, p.occ.toVector))
                .toVector == f.patterns.map(p => (p.rels.toVector, p.support.toVector, p.occOff.toVector, p.occ.toVector))
                .toVector, at)
              assert(gm.occurrences == f.occurrences && gm.checks <= f.checks, at)
          }
        }
        prev = level
      }
    }
    // Tasks the group test alone would have mined, and tasks left to mine.
    assert(rejected > 100 && admittedTasks > 100, s"rejected=$rejected admitted=$admittedTasks")
  }

  test("the pair-support test rejects a group whose events' support intersection is a candidate") {
    // Granules of 4 positions; A:1, B:1 and C:1 occur in the blocks
    // {1,2,3}, {8,9,10}, {15,16,17} and {22,23,24}: four chained seasons.
    // A:1 contains C:1 in the first three blocks; in the last, A:1's shape
    // changes every granule, so (A:1, C:1) has a different relation at 22,
    // 23 and 24, none of them a candidate 2-pattern. B:1 and C:1 mirror
    // that: one relation in the last two blocks, three in the first two.
    // The pair supports meet in {15,16,17} only, one season.
    val blocks = Set(1, 2, 3, 8, 9, 10, 15, 16, 17, 22, 23, 24)
    val shapes = Vector("1000", "0001", "1100") // Follows, follows, overlaps C's "0110"
    def series(id: String, shape: Int => String) =
      SymbolicSeries(id, (1 to 24).toVector.flatMap(g => (if (blocks(g)) shape(g) else "0000").map(_.toString)))
    val db = SequenceDB.build(SymbolicDB(Vector(
      series("A", g => if (g < 22) "1111" else shapes(g - 22)),
      series("B", g => if (g >= 15) "1111" else shapes((g - 1) % 7)),
      series("C", _ => "0110"))), 4)
    val cfg = STPMConfig(SeasonCfg(2, 2, 1, 10, 2), maxK = 3)
    val hlh1 = HLH1.build(db, cfg.season, apriori = true)
    val Seq(a, b, c) = Seq("A:1", "B:1", "C:1").map(e => hlh1.candidates.indexOf(Fixtures.ev(e)))
    val h2 = STPM.mineLevel(hlh1, hlh1, cfg, new MiningStats)
    val stats = new MiningStats
    val h3 = STPM.mineLevel(hlh1, h2, cfg, stats)
    val n = hlh1.candidates.size
    val words = (db.size + 64) / 64
    def row(e0: Int, e1: Int): Vector[Int] = {
      val r = h3.pairRels(e0 * n + e1)
      (1 to db.size).toVector.filter(g => (h3.pairSup((r >>> 6) * words + g / 64) >>> g & 1L) != 0)
    }
    assert(row(a, c) == Vector(1, 2, 3, 8, 9, 10, 15, 16, 17))
    assert(row(b, c) == Vector(15, 16, 17, 22, 23, 24))
    val s = row(a, c).intersect(row(b, c)).toArray
    assert(!Seasonality.isCandidate(s, s.length, cfg.season))
    val ab = h2.groups.find(_.group.toVector == Vector(a, b)).get
    val sup = hlh1.restrict(ab.sup, c)
    assert(sup.toVector == blocks.toVector.sorted && Seasonality.isCandidate(sup, sup.length, cfg.season))
    assert(STPM.mineGroup(hlh1, ab, c, h3.pairRels, h3.pairSup, cfg).isEmpty)
    // Without the pair supports the group is mined: {15,16,17} only, and
    // no pattern is admitted.
    val full = STPM.mineGroup(hlh1, ab, c, h3.pairRels, Array.emptyLongArray, cfg).get
    assert(full.checks > 0 && full.occurrences == 3 && full.patterns.isEmpty)
    assert(stats.pairRejected(3) > 0)
    def table(ps: Vector[FrequentPattern]) = ps.map(p => p.key -> ((p.support, p.seasons))).toMap
    assert(table(STPM.mine(db, cfg).frequent) == table(ReferenceMiner.mine(db, cfg.season, cfg.rel, 3)))
  }

  test("the pooled executor equals the inline one: same patterns in the same order, same counters") {
    for (seed <- 1L to 3L; maxK <- Seq(3, 4); ap <- Seq(true, false); tr <- Seq(true, false)) {
      val db = randomDb(4, 90, 3, seed)
      val cfg = STPMConfig(lenient, maxK = maxK, apriori = ap, transitivity = tr)
      val pooled = STPM.mine(db, cfg)
      val inline = STPM.mineFiltered(db, cfg, None, None, STPM.inline)
      val at = s"seed=$seed maxK=$maxK apriori=$ap transitivity=$tr"
      assert(pooled.frequent == inline.frequent, at)
      assert(pooled.stats.toString == inline.stats.toString, at) // every counter
    }
  }

  test("an exception inside a pooled task reaches the caller as thrown, not wrapped") {
    val hlh1 = HLH1.build(Fixtures.tableIV, Fixtures.exampleCfg, apriori = true)
    val n = hlh1.candidates.size
    val level = new Level(hlh1, hlh1.groups, Array.emptyIntArray, Array.emptyLongArray, Fixtures.stpmCfg)
    // Event id n is out of range: the kernel's own IndexOutOfBoundsException.
    val tasks = Vector.tabulate(n)(e => new GroupTask(0, e)) :+ new GroupTask(0, n)
    for (exec <- Seq(STPM.inline, STPM.pooled))
      intercept[IndexOutOfBoundsException](exec(level, tasks))
  }

  test("maxK = 1 mines only single events") {
    val db = randomDb(2, 30, 3, 3L)
    val res = STPM.mine(db, STPMConfig(lenient, maxK = 1))
    assert(res.frequent.forall(_.k == 1))
  }

  test("maxK outside 1..13 is rejected: a level's new relations must fit the kernel's 32-bit code") {
    for (maxK <- Seq(0, 14)) intercept[IllegalArgumentException](STPMConfig(lenient, maxK = maxK))
    assert(STPMConfig(lenient, maxK = 13).maxK == 13)
  }

  test("impossible thresholds yield no patterns") {
    val db = randomDb(2, 30, 3, 3L)
    val cfg = STPMConfig(SeasonCfg(1, 10, 1, 2, 99))
    assert(STPM.mine(db, cfg).frequent.isEmpty)
  }

  test("every reported support set is sorted, distinct, non-empty") {
    val db = randomDb(4, 90, 3, 5L)
    val res = STPM.mine(db, STPMConfig(lenient, maxK = 3))
    for (fp <- res.frequent) {
      assert(fp.support.nonEmpty)
      assert(fp.support == fp.support.distinct.sorted)
      assert(fp.support.last <= db.size)
    }
  }

  test("epsilon changes relation labels, not soundness") {
    val db = randomDb(3, 60, 4, 9L)
    for (eps <- 0 to 2) {
      val cfg = STPMConfig(lenient, rel = RelCfg(epsilon = eps), maxK = 2)
      val res = STPM.mine(db, cfg)
      for (fp <- res.frequent)
        assert(Seasonality.isFrequentSeasonal(fp.support.toArray, lenient))
    }
  }
}
