package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.SeasonalGen
import repro.data.SeasonalGen.{Participant, Planted}
import repro.exp.Experiments

class ASTPMSpec extends AnyFunSuite {

  // Series 0-2: a near-duplicate Contains chain (1-slot stagger, high NMI).
  // Series 3-4: a disjoint-slot Follows pair (low NMI — pruned by A-STPM).
  // Series 5-7: pure noise.
  private val m = 24
  private val spec = SeasonalGen.Spec(
    name = "astpm-test", nSeries = 8, nCoarse = 400, m = m,
    planted = Vector(
      Planted(Vector(Participant(0, 1, m), Participant(1, 2, m), Participant(2, 3, m)),
        period = 40, window = 10),
      Planted(Vector(Participant(3, 1, 8), Participant(4, 14, m)),
        period = 50, window = 12)),
    noise = 0.005, seed = 7L)
  private val (syb, db) = SeasonalGen.dataset(spec)
  private val cfg = STPMConfig(
    SeasonCfg(maxPeriod = 3, minDensity = 4, distMin = 20, distMax = 60, minSeason = 3),
    maxK = 3)

  private lazy val exact = STPM.mine(db, cfg)
  private lazy val approx = ASTPM.mine(syb, db, cfg)

  private def corr(a: String, b: String): Boolean =
    approx.correlatedPairs.contains((a, b)) || approx.correlatedPairs.contains((b, a))

  test("near-duplicate chain pairs are correlated; disjoint and noise pairs are not") {
    assert(corr("S000", "S001"), s"pairs: ${approx.correlatedPairs}")
    assert(corr("S001", "S002"))
    assert(!corr("S003", "S004")) // disjoint slots — low NMI
    assert(!corr("S005", "S006")) // noise
    assert(!corr("S000", "S005"))
  }

  test("A-STPM results are a subset of E-STPM results (soundness of the approximation)") {
    val e = exact.keys
    for (k <- approx.mining.keys)
      assert(e.contains(k), s"A-STPM found ${k.render} that E-STPM did not")
  }

  test("patterns among correlated series survive the approximation") {
    val approxKeys = approx.mining.keys
    val survivors = exact.frequent.filter { p =>
      val ss = p.key.events.map(_.series).distinct
      ss.forall(approx.keptSeries.contains) &&
        ss.combinations(2).forall { case Seq(a, b) => corr(a, b); case _ => true }
    }
    assert(survivors.nonEmpty)
    for (p <- survivors)
      assert(approxKeys.contains(p.key), s"correlated pattern ${p.key.render} lost")
  }

  test("the planted chain pattern is found by both miners") {
    assert(exact.frequent.nonEmpty)
    val chainPair = Decode.frequentOfSize(exact, 2).filter(p =>
      p.key.events.map(_.series).toSet == Set("S000", "S001") &&
        p.key.events.forall(_.symbol == "2"))
    assert(chainPair.nonEmpty, Decode.frequentOfSize(exact, 2).map(_.key.render).mkString(", "))
    for (p <- chainPair) assert(approx.mining.keys.contains(p.key))
  }

  test("accuracy is measured and within (0, 100]") {
    val acc = ASTPM.accuracy(approx.mining, exact)
    assert(acc > 0.0 && acc <= 100.0, s"accuracy $acc")
  }

  test("noise series are pruned; kept series include the chain") {
    assert(Set("S000", "S001", "S002").subsetOf(approx.keptSeries))
    assert(approx.prunedSeries.nonEmpty)
    assert(approx.prunedSeriesPct > 0.0 && approx.prunedSeriesPct < 100.0)
    assert(approx.prunedEventsPct(db) > 0.0)
  }

  test("accuracy bookkeeping edge cases") {
    assert(ASTPM.accuracy(exact, exact) == 100.0)
    val empty = MiningResult(Vector.empty, new MiningStats)
    assert(ASTPM.accuracy(empty, empty) == 100.0)
    assert(ASTPM.accuracy(empty, exact) == 0.0)
  }

  test("a constant series has NMI 0 and is pruned; two constants have μ = +∞") {
    // S000-S002 as above, plus two series that hold one symbol throughout.
    val n = syb.length
    val withConstants = SymbolicDB(syb.series.take(3) ++ Vector(
      SymbolicSeries("K0", Vector.fill(n)("0")), SymbolicSeries("K1", Vector.fill(n)("1"))))
    val withDb = SequenceDB.build(withConstants, m)
    val ss = withConstants.series
    def mu(t: JointCounts) = t.mu(withDb.size, cfg.season.minSeason, cfg.season.minDensity)
    assert(mu(MutualInformation.joint(ss(3), ss(4))).isPosInfinity)
    for (i <- ss.indices; j <- (i + 1) until ss.size; (a, b) = (ss(i).id, ss(j).id)
         if a.startsWith("K") || b.startsWith("K")) {
      val t = MutualInformation.joint(ss(i), ss(j))
      assert(t.minNmi == 0.0, s"NMI of ($a, $b)")
      // Against a varying series, μ is finite but still above NMI 0.
      assert(mu(t) > 0.0, s"μ of ($a, $b)")
    }
    val r = ASTPM.mine(withConstants, withDb, cfg)
    assert(r.keptSeries == Set("S000", "S001", "S002"))
    assert(r.mining.frequent.forall(_.key.events.forall(_.series.startsWith("S"))))
  }

  test("μ and NMI are defined for every series pair; NMI is in [0, 1]") {
    val ss = syb.series
    val joints = for (i <- ss.indices; j <- (i + 1) until ss.size) yield MutualInformation.joint(ss(i), ss(j))
    assert(joints.size == spec.nSeries * (spec.nSeries - 1) / 2)
    for (t <- joints) {
      assert(t.minNmi >= 0.0 && t.minNmi <= 1.0)
      assert(!t.mu(db.size, cfg.season.minSeason, cfg.season.minDensity).isNaN)
    }
    assert(approx.nmiMillis >= 0)
  }

  /** Def. 5.4 without the entropy screen: every pair's joint counts are
    * merged and its min NMI compared with μ.
    */
  private def mergeAll(s: SymbolicDB, d: SeqDB, cfg: STPMConfig): Set[(String, String)] = {
    val ss = s.series
    (for (i <- ss.indices; j <- (i + 1) until ss.size;
          t = MutualInformation.joint(ss(i), ss(j))
          if t.minNmi >= t.mu(d.size, cfg.season.minSeason, cfg.season.minDensity))
      yield (ss(i).id, ss(j).id)).toSet
  }

  test("the entropy screen changes no correlated pair: RE, INF and the 8-series spec against merging every pair") {
    val inputs = Seq("RE", "INF").map(n => (n, SeasonalGen.dataset(SeasonalGen.preset(n)))) :+ (("spec", (syb, db)))
    var rejected = 0
    for ((name, (s, d)) <- inputs; minSeason <- Seq(3, 8, 16)) {
      val c = STPMConfig(Experiments.cfgOf(d.size, "RE", 0.4, 0.75, minSeason), maxK = 1)
      val r = ASTPM.mine(s, d, c)
      val n = s.series.size
      assert(r.correlatedPairs == mergeAll(s, d, c), s"$name minSeason=$minSeason")
      assert(r.entropyRejectedPairs + r.mergedPairs == n * (n - 1) / 2, s"$name minSeason=$minSeason")
      rejected += r.entropyRejectedPairs
    }
    assert(rejected > 0)
  }

  test("MI stage counters on scaled INF, 48 series, seed 42: pairs rejected by the entropy bound, merged and correlated") {
    val (s, d) = SeasonalGen.dataset(SeasonalGen.scaled("INF", 48, 800, 42L))
    val r = ASTPM.mine(s, d, STPMConfig(Experiments.cfgOf(d.size, "INF", 0.4, 0.75, 8), maxK = 1))
    assert((r.entropyRejectedPairs, r.mergedPairs, r.correlatedPairs.size, r.keptSeries.size) == ((633, 495, 21, 23)))
  }

  test("at every level A-STPM pairs only correlated series, and its output does not depend on transitivity") {
    for (name <- Seq("RE", "INF")) {
      val (s, d) = SeasonalGen.dataset(SeasonalGen.preset(name))
      for (maxK <- 3 to 5) {
        val cfg = STPMConfig(Experiments.cfgOf(d.size, name, 0.4, 0.75, 4), maxK = maxK)
        val on = ASTPM.mine(s, d, cfg)
        val off = ASTPM.mine(s, d, cfg.copy(transitivity = false))
        def corr(a: String, b: String) = on.correlatedPairs((a, b)) || on.correlatedPairs((b, a))
        for ((r, tr) <- Seq((on, true), (off, false)); p <- r.mining.frequent;
             Seq(a, b) <- p.key.events.map(_.series).distinct.combinations(2))
          assert(corr(a, b), s"$name maxK=$maxK transitivity=$tr: ${p.key.render} pairs $a with $b")
        assert(off.mining.frequent == on.mining.frequent, s"$name maxK=$maxK")
      }
    }
  }
}
