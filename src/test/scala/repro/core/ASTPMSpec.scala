package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.SeasonalGen
import repro.data.SeasonalGen.{Participant, Planted}

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
    val chainPair = exact.frequentOfSize(2).filter(p =>
      p.key.events.map(_.series).toSet == Set("S000", "S001") &&
        p.key.events.forall(_.symbol == "2"))
    assert(chainPair.nonEmpty, exact.frequentOfSize(2).map(_.key.render).mkString(", "))
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
    val r = ASTPM.mine(withConstants, SequenceDB.build(withConstants, m), cfg)
    assert(r.muBySeriesPair(("K0", "K1")).isPosInfinity)
    for (((a, b), nmi) <- r.nmiBySeriesPair if a.startsWith("K") || b.startsWith("K")) {
      assert(nmi == 0.0, s"NMI of ($a, $b)")
      // Against a varying series, μ is finite but still above NMI 0.
      assert(r.muBySeriesPair((a, b)) > 0.0, s"μ of ($a, $b)")
    }
    assert(r.keptSeries == Set("S000", "S001", "S002"))
    assert(r.mining.frequent.forall(_.key.events.forall(_.series.startsWith("S"))))
  }

  test("μ and NMI are recorded for every series pair") {
    val nPairs = spec.nSeries * (spec.nSeries - 1) / 2
    assert(approx.muBySeriesPair.size == nPairs)
    assert(approx.nmiBySeriesPair.size == nPairs)
    for ((_, nmi) <- approx.nmiBySeriesPair) assert(nmi >= 0.0 && nmi <= 1.0)
    assert(approx.nmiMillis >= 0)
  }
}
