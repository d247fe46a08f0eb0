package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}

class SeasonalitySpec extends AnyFunSuite with PropSupport {

  private val cfg = Fixtures.exampleCfg // maxPeriod=2 minDensity=3 dist [4,10] minSeason=2

  test("near support sets split at gaps > maxPeriod — paper Fig. 3") {
    // P = C:1 >= D:1 with SUP = {1,2,3,7,8,11,12,14}.
    val ns = Seasonality.nearSupportSets(Vector(1, 2, 3, 7, 8, 11, 12, 14), 2)
    assert(ns.map(_.granules) == Vector(Vector(1, 2, 3), Vector(7, 8), Vector(11, 12, 14)))
    assert(ns.map(_.density) == Vector(3, 2, 3))
  }

  test("near support sets of an empty and singleton support") {
    assert(Seasonality.nearSupportSets(Vector.empty, 2).isEmpty)
    assert(Seasonality.nearSupportSets(Vector(5), 2).map(_.granules) == Vector(Vector(5)))
  }

  test("seasons filter by minDensity — Fig. 3 example keeps 2 of 3") {
    val seasons = Seasonality.seasonsOf(Vector(1, 2, 3, 7, 8, 11, 12, 14), cfg)
    assert(seasons.map(_.granules) == Vector(Vector(1, 2, 3), Vector(11, 12, 14)))
  }

  test("season distance — Def. 3.16 formula") {
    val s1 = NearSupport(Vector(1, 2, 3))
    val s2 = NearSupport(Vector(11, 12, 14))
    assert(Seasonality.dist(s1, s2) == 8) // |p(H3) - p(H11)|
  }

  test("C:1 >= D:1 is frequent seasonal under the example thresholds") {
    val sup = Vector(1, 2, 3, 7, 8, 11, 12, 14)
    assert(Seasonality.isFrequentSeasonal(sup.toArray, cfg))
    val seasons = Seasonality.seasonsOf(sup, cfg)
    assert(Seasonality.seasonCount(seasons, cfg) == 2)
  }

  test("paper Sec. IV-B: M:1 >= N:1 support sets — 2 chained seasons") {
    // The paper's stated seasons of P: {H1,H3,H4,H5,H6} and {H10,H11,H13}.
    val sup = Vector(1, 3, 4, 5, 6, 10, 11, 13)
    val seasons = Seasonality.seasonsOf(sup, cfg)
    assert(seasons.map(_.granules) == Vector(Vector(1, 3, 4, 5, 6), Vector(10, 11, 13)))
    assert(Seasonality.dist(seasons(0), seasons(1)) == 4)
    assert(Seasonality.seasonCount(seasons, cfg) == 2)
    assert(Seasonality.isFrequentSeasonal(sup.toArray, cfg))
  }

  test("paper Sec. IV-B: event M:1 has a single season — not frequent") {
    val sup = Vector(1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 13)
    val seasons = Seasonality.seasonsOf(sup, cfg)
    assert(seasons.size == 1)
    assert(!Seasonality.isFrequentSeasonal(sup.toArray, cfg))
  }

  test("distInterval breaks chains: distance outside [distMin, distMax]") {
    // Two dense seasons 20 apart under dist [4,10] — chain of length 1.
    val sup = Vector(1, 2, 3, 23, 24, 25)
    val seasons = Seasonality.seasonsOf(sup, cfg)
    assert(seasons.size == 2)
    assert(Seasonality.seasonCount(seasons, cfg) == 1)
    assert(!Seasonality.isFrequentSeasonal(sup.toArray, cfg))
  }

  test("longest chain is found among mixed distances") {
    // Seasons ending/starting: [1..3], [9..11], [17..19], [40..42]:
    // dists 6, 6, 21 → chain = 3.
    val sup = Vector(1, 2, 3, 9, 10, 11, 17, 18, 19, 40, 41, 42)
    val seasons = Seasonality.seasonsOf(sup, cfg)
    assert(seasons.size == 4)
    assert(Seasonality.seasonCount(seasons, cfg) == 3)
  }

  test("candidate test: the season bound reaches minSeason") {
    val sup = Array(1, 2, 3, 4, 5, 6) // one near support set
    assert(Seasonality.isCandidate(sup, 6, cfg))  // ⌊6 / 3⌋ = 2 >= 2
    assert(!Seasonality.isCandidate(sup, 5, cfg)) // ⌊5 / 3⌋ < 2
  }

  test("the candidate test admits every frequent seasonal support set (Lemma 1)") {
    val gen = for {
      n <- Gen.choose(0, 60)
      s <- Gen.listOfN(n, Gen.choose(1, 200))
    } yield s.distinct.sorted.toArray
    checkProp(Prop.forAll(gen) { sup =>
      !Seasonality.isFrequentSeasonal(sup, cfg) || Seasonality.isCandidate(sup, sup.length, cfg)
    })
  }

  test("anti-monotonicity: no subset of a non-candidate is a candidate (Lemma 1)") {
    val gen = for {
      n <- Gen.choose(1, 50)
      s <- Gen.listOfN(n, Gen.choose(1, 300))
      keep <- Gen.listOfN(n, Gen.oneOf(true, false))
    } yield {
      val sup = s.distinct.sorted.toArray
      (sup, sup.zip(keep).collect { case (g, true) => g })
    }
    checkProp(Prop.forAll(gen) { case (sup, sub) =>
      Seasonality.isCandidate(sup, sup.length, cfg) || !Seasonality.isCandidate(sub, sub.length, cfg)
    })
  }

  test("season bound — paper Fig. 3 support, with and without a distMax cut") {
    // NS = {1,2,3}, {7,8}, {11,12,14}; gaps 4 and 3; ⌊|NS| / 3⌋ = 1, 0, 1.
    val sup = Array(1, 2, 3, 7, 8, 11, 12, 14)
    assert(Seasonality.seasonBound(sup, sup.length, cfg) == 2) // no gap exceeds distMax 10
    // distMax 3 cuts the gap of 4: stretches {1,2,3} and {7,8},{11,12,14}
    // bound 1 each, though maxSeason = 8 / 3 admits the support set.
    val narrow = cfg.copy(distMin = 1, distMax = 3)
    assert(Seasonality.seasonBound(sup, sup.length, narrow) == 1)
    assert(sup.length / narrow.minDensity >= narrow.minSeason)
    assert(!Seasonality.isCandidate(sup, sup.length, narrow))
    assert(Seasonality.seasonCount(Seasonality.seasonsOf(sup.toVector, narrow), narrow) == 1)
    assert(Seasonality.seasonBound(sup, sup.length - 3, cfg) == 1) // the first 5 granules
    assert(Seasonality.seasonBound(Array.emptyIntArray, 0, cfg) == 0)
  }

  test("season bound is sound: it bounds seasons(P′) of every SUP′ ⊆ SUP and never exceeds maxSeason") {
    val gen = for {
      n <- Gen.choose(0, 80)
      s <- Gen.listOfN(n, Gen.choose(1, 300))
      maxPeriod <- Gen.choose(1, 6)
      minDensity <- Gen.choose(1, 4)
      distMin <- Gen.choose(0, 6)
      width <- Gen.choose(0, 15) // distMax <= 21, so cuts occur
      minSeason <- Gen.choose(1, 5)
      keep <- Gen.listOfN(n, Gen.oneOf(true, false))
    } yield {
      val sup = s.distinct.sorted.toArray
      (sup, sup.zip(keep).collect { case (g, true) => g },
        SeasonCfg(maxPeriod, minDensity, distMin, distMin + width, minSeason))
    }
    var cut = 0 // cases where the bound is below ⌊maxSeason⌋
    checkProp(Prop.forAll(gen) { case (sup, sub, c) =>
      def seasons(s: Array[Int]) = Seasonality.seasonCount(Seasonality.seasonsOf(s.toVector, c), c)
      val bound = Seasonality.seasonBound(sup, sup.length, c)
      if (bound < sup.length / c.minDensity) cut += 1
      seasons(sup) <= bound && seasons(sub) <= bound && bound <= sup.length / c.minDensity &&
        Seasonality.seasonBound(sub, sub.length, c) <= bound // anti-monotone
    }, minTests = 500)
    assert(cut > 50, s"only $cut cases had a cut")
  }

  test("near support sets partition the support set") {
    val gen = for {
      n <- Gen.choose(1, 80)
      s <- Gen.listOfN(n, Gen.choose(1, 400))
      p <- Gen.choose(1, 10)
    } yield (s.distinct.sorted.toVector, p)
    checkProp(Prop.forAll(gen) { case (sup, maxPer) =>
      val ns = Seasonality.nearSupportSets(sup, maxPer)
      val flat = ns.flatMap(_.granules)
      flat == sup &&
        ns.forall(s => s.granules.sliding(2).forall {
          case Seq(a, b) => b - a <= maxPer
          case _         => true
        }) &&
        ns.sliding(2).forall {
          case Seq(a, b) => b.first - a.last > maxPer
          case _         => true
        }
    })
  }

  test("the one-pass verdict equals the definition: seasonCount(seasonsOf(sup)) >= minSeason") {
    val gen = for {
      n <- Gen.choose(0, 80)
      s <- Gen.listOfN(n, Gen.choose(1, 300))
      maxPeriod <- Gen.choose(1, 6)
      minDensity <- Gen.choose(1, 5)
      distMin <- Gen.choose(0, 12)
      width <- Gen.choose(0, 30)
      minSeason <- Gen.choose(1, 5)
    } yield (s.distinct.sorted.toVector, SeasonCfg(maxPeriod, minDensity, distMin, distMin + width, minSeason))
    checkProp(Prop.forAll(gen) { case (sup, c) =>
      val seasons = Seasonality.seasonsOf(sup, c)
      Seasonality.isFrequentSeasonal(sup.toArray, c) == (Seasonality.seasonCount(seasons, c) >= c.minSeason)
    }, minTests = 500)
    intercept[IllegalArgumentException](Seasonality.isFrequentSeasonal(Array(1, 3, 3), cfg))
  }

  test("SeasonCfg.fromPercent converts Table VI percentages with ceil") {
    val c = SeasonCfg.fromPercent(1460, 0.2, 0.5, 90, 270, 12)
    assert(c.maxPeriod == 3)   // ceil(2.92)
    assert(c.minDensity == 8)  // ceil(7.3)
    assert(c.distMin == 90 && c.distMax == 270 && c.minSeason == 12)
    val tiny = SeasonCfg.fromPercent(10, 0.2, 0.5, 1, 5, 2)
    assert(tiny.maxPeriod == 1 && tiny.minDensity == 1) // clamped to >= 1
  }

  test("config validation") {
    intercept[IllegalArgumentException](SeasonCfg(0, 1, 1, 2, 1))
    intercept[IllegalArgumentException](SeasonCfg(1, 0, 1, 2, 1))
    intercept[IllegalArgumentException](SeasonCfg(1, 1, 3, 2, 1))
    intercept[IllegalArgumentException](SeasonCfg(1, 1, 1, 2, 0))
  }

  test("strictly increasing support enforced") {
    intercept[IllegalArgumentException](Seasonality.nearSupportSets(Vector(3, 3), 2))
    intercept[IllegalArgumentException](Seasonality.nearSupportSets(Vector(5, 4), 2))
  }
}
