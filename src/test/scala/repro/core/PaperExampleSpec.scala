package repro.core

import org.scalatest.funsuite.AnyFunSuite
import Fixtures._

/** End-to-end STPM on the paper's running example (Tables II & IV, Figs.
  * 3 & 6, Sec. IV examples). One deviation is expected and documented: the
  * paper's Sec. IV-B support listing for M:1 ≽ N:1 omits H9 although H9
  * holds identical M:1/N:1 instances like H5 and H10 — we treat that as a
  * typo (DESIGN.md §4) and assert our consistent semantics.
  */
class PaperExampleSpec extends AnyFunSuite {

  private val db = tableIV
  private val result = STPM.mine(db, stpmCfg.copy(maxK = 3))

  private def supportOf(e: String): Vector[Int] = {
    val event = ev(e)
    db.rows.filter(_.events.contains(event)).map(_.pos)
  }

  test("event support sets from Table IV") {
    assert(supportOf("C:1") == Vector(1, 2, 3, 7, 8, 11, 12, 14))
    assert(supportOf("M:1") == Vector(1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 13))
    assert(supportOf("M:0") == Vector(2, 4, 7, 12, 14))
    assert(supportOf("N:0") == Vector(1, 4, 7, 8, 14))
    assert(supportOf("D:1") == Vector(1, 2, 3, 4, 7, 8, 11, 12, 13, 14))
  }

  test("candidate seasonal single events are exactly the paper's eight") {
    val hlh1 = HLH1.build(db, exampleCfg, apriori = true)
    val expected = Set("C:1", "C:0", "D:1", "D:0", "F:1", "F:0", "M:1", "N:1").map(ev)
    assert(hlh1.candidates.toSet == expected)
  }

  private def isCandidate(e: String): Boolean = {
    val sup = supportOf(e).toArray
    Seasonality.isCandidate(sup, sup.length, exampleCfg)
  }

  test("M:0 and N:0 fail the maxSeason candidate test (Fig. 6)") {
    for (e <- Seq("M:0", "N:0")) {
      assert(supportOf(e).size / exampleCfg.minDensity < exampleCfg.minSeason) // the paper's 5 / 3
      assert(!isCandidate(e))
    }
  }

  test("M:1 is a candidate but not a frequent seasonal event (one season)") {
    assert(isCandidate("M:1"))
    assert(!result.keys.contains(PatternKey.single(ev("M:1"))))
  }

  test("C:1 is a frequent seasonal event") {
    val fp = result.frequent.find(_.key == PatternKey.single(ev("C:1")))
    assert(fp.isDefined)
    assert(fp.get.seasons.map(_.granules) ==
      Vector(Vector(1, 2, 3), Vector(11, 12, 14)))
  }

  test("pattern C:1 >= D:1 has the paper's support set (Fig. 3)") {
    val key = PatternKey(Vector(ev("C:1"), ev("D:1")), Vector((Rel.Contains, true)))
    val fp = result.frequent.find(_.key == key)
    assert(fp.isDefined, s"pattern $key not frequent; frequent 2-patterns: " +
      Decode.frequentOfSize(result, 2).map(_.key.render).mkString(", "))
    assert(fp.get.support == Vector(1, 2, 3, 7, 8, 11, 12, 14))
    assert(fp.get.seasons.map(_.granules) ==
      Vector(Vector(1, 2, 3), Vector(11, 12, 14)))
  }

  test("pattern M:1 >= N:1 support — paper's listing modulo the H9 typo") {
    val hlh1 = HLH1.build(db, exampleCfg, apriori = true)
    val m1 = hlh1.groups(hlh1.candidates.indexOf(ev("M:1")))
    val gm = STPM.mineGroup(hlh1, m1, hlh1.candidates.indexOf(ev("N:1")), Array.emptyIntArray, Array.emptyLongArray, stpmCfg).get
    val contains = Decode.patterns(hlh1, gm).find(_.key.rels == Vector((Rel.Contains, true)))
    assert(contains.isDefined)
    // Paper states {1,3,4,5,6} ∪ {10,11,13}; H9 holds identical instances
    // to H5/H10 and must be included under any consistent reading.
    assert(contains.get.support == Vector(1, 3, 4, 5, 6, 9, 10, 11, 13))
  }

  test("every frequent pattern's sub-events are candidates (Lemma 2 in action)") {
    val hlh1 = HLH1.build(db, exampleCfg, apriori = true)
    val cands = hlh1.candidates.toSet
    for (fp <- result.frequent; e <- fp.key.events)
      assert(cands.contains(e), s"event $e of ${fp.key.render} not a candidate")
  }

  test("frequent patterns satisfy all four thresholds by construction") {
    for (fp <- result.frequent) {
      val seasons = Seasonality.seasonsOf(fp.support, exampleCfg)
      assert(seasons.forall(_.density >= exampleCfg.minDensity))
      assert(Seasonality.seasonCount(seasons, exampleCfg) >= exampleCfg.minSeason)
    }
  }

  test("support sets of frequent k-patterns are within their events' supports") {
    for (fp <- result.frequent if fp.k >= 2; e <- fp.key.events)
      assert(fp.support.toSet.subsetOf(supportOf(e.key).toSet))
  }

  test("stats reflect the example: 10 events, 8 candidates") {
    assert(result.stats.totalEvents == 10)
    assert(result.stats.candidateEvents == 8)
    assert(result.stats.relationChecks > 0)
  }
}
