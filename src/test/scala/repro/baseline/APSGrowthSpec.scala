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

  test("multiset expansion: sets, self-pairs and triples") {
    def e(s: String) = Event.parse(s)
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

  test("intersectSorted basics") {
    def intersect(a: Vector[Int], b: Vector[Int]) = APSGrowth.intersectSorted(a.toArray, b.toArray).toVector
    assert(intersect(Vector(1, 3, 5, 7), Vector(3, 4, 5, 9)) == Vector(3, 5))
    assert(intersect(Vector.empty, Vector(1)) == Vector.empty)
  }
}
