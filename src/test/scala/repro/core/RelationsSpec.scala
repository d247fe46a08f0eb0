package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.core.Relations.RelCfg

class RelationsSpec extends AnyFunSuite with PropSupport {

  private val cfg0 = RelCfg(epsilon = 0, minOverlap = 1)

  test("Follows: a ends strictly before b starts (ε = 0)") {
    assert(Relations.relate(Interval(1, 2), Interval(3, 4), cfg0) == Rel.Follows)
    assert(Relations.relate(Interval(1, 2), Interval(10, 12), cfg0) == Rel.Follows)
  }

  test("Contains: a covers b, equal intervals included (ε = 0)") {
    assert(Relations.relate(Interval(1, 4), Interval(2, 3), cfg0) == Rel.Contains)
    assert(Relations.relate(Interval(1, 4), Interval(1, 4), cfg0) == Rel.Contains)
    assert(Relations.relate(Interval(1, 4), Interval(4, 4), cfg0) == Rel.Contains)
  }

  test("Overlaps: shared span >= d_o and b outlives a (ε = 0)") {
    assert(Relations.relate(Interval(1, 3), Interval(3, 5), cfg0) == Rel.Overlaps)
    assert(Relations.relate(Interval(1, 3), Interval(2, 9), cfg0) == Rel.Overlaps)
  }

  test("adjacent intervals: b starts right after a ends → Follows") {
    assert(Relations.relate(Interval(1, 2), Interval(3, 5), cfg0) == Rel.Follows)
  }

  test("minOverlap d_o promotes short overlaps to Follows") {
    val cfg = RelCfg(epsilon = 0, minOverlap = 2)
    // Share exactly 1 granule < d_o = 2.
    assert(Relations.relate(Interval(1, 3), Interval(3, 5), cfg) == Rel.Follows)
    // Share 2 granules.
    assert(Relations.relate(Interval(1, 4), Interval(3, 6), cfg) == Rel.Overlaps)
  }

  test("epsilon widens Contains at the end boundary") {
    val cfg = RelCfg(epsilon = 1)
    // b ends 1 past a's end — inside the ε buffer.
    assert(Relations.relate(Interval(1, 4), Interval(2, 5), cfg) == Rel.Contains)
    assert(Relations.relate(Interval(1, 4), Interval(2, 6), cfg) == Rel.Overlaps)
  }

  test("relate requires chronological orientation") {
    intercept[IllegalArgumentException](
      Relations.relate(Interval(5, 6), Interval(1, 2), cfg0))
  }

  test("orientAndRelate orders the operands") {
    val x = Instance(Event("A", "1"), Interval(5, 6))
    val y = Instance(Event("B", "1"), Interval(1, 2))
    val (first, second, rel) = OccurrenceKey.orientAndRelate(x, y, cfg0)
    assert(first == y && second == x && rel == Rel.Follows)
  }

  test("orientAndRelate: on a start tie the containing instance is first") {
    // Paper Table IV, H1: M:1 [G1,G3] contains N:1 [G1,G2] — both start at
    // G1, the longer instance is the relation's left operand.
    val m = Instance(Event("M", "1"), Interval(1, 3))
    val n = Instance(Event("N", "1"), Interval(1, 2))
    val (first, second, rel) = OccurrenceKey.orientAndRelate(n, m, cfg0)
    assert(first == m && second == n && rel == Rel.Contains)
  }

  test("orientAndRelate: identical intervals break ties by event id") {
    val c = Instance(Event("C", "1"), Interval(4, 4))
    val d = Instance(Event("D", "1"), Interval(4, 4))
    val (first, _, rel) = OccurrenceKey.orientAndRelate(d, c, cfg0)
    assert(first == c && rel == Rel.Contains)
  }

  test("orientAndRelate is symmetric in its arguments") {
    val x = Instance(Event("A", "1"), Interval(2, 8))
    val y = Instance(Event("B", "1"), Interval(3, 5))
    assert(OccurrenceKey.orientAndRelate(x, y, cfg0) == OccurrenceKey.orientAndRelate(y, x, cfg0))
  }

  test("property: relate is total and mutually exclusive (Property 1)") {
    val genIv = for {
      s <- Gen.choose(1, 50)
      d <- Gen.choose(0, 20)
    } yield Interval(s, s + d)
    val genCfg = for {
      e <- Gen.choose(0, 3)
      o <- Gen.choose(1, 4)
    } yield RelCfg(e, o)
    checkProp(Prop.forAll(genIv, genIv, genCfg) { (i1, i2, cfg) =>
      val (a, b) = if (i1.start <= i2.start) (i1, i2) else (i2, i1)
      // Exactly one of the three relations is returned — totality by type,
      // exclusivity by the decision procedure being a function.
      val r = Relations.relate(a, b, cfg)
      Rel.all.count(_ == r) == 1
    })
  }

  test("property: ε = 0, d_o = 1 decision matches Table III conditions") {
    val genIv = for {
      s <- Gen.choose(1, 30)
      d <- Gen.choose(0, 10)
    } yield Interval(s, s + d)
    checkProp(Prop.forAll(genIv, genIv) { (i1, i2) =>
      val (a, b) = if (i1.start <= i2.start) (i1, i2) else (i2, i1)
      val r = Relations.relate(a, b, cfg0)
      r match {
        case Rel.Follows  => a.end < b.start
        case Rel.Contains => a.start <= b.start && a.end >= b.end
        case Rel.Overlaps => a.end < b.end && a.end - b.start + 1 >= 1
      }
    })
  }

  test("property: pairCode codes a slot pair as orientAndRelate relates it") {
    val events = Vector(Event("A", "1"), Event("B", "1"))
    val genIv = for {
      s <- Gen.choose(1, 12)
      d <- Gen.choose(0, 6)
    } yield Interval(s, s + d)
    val genCfg = for {
      e <- Gen.choose(0, 2)
      o <- Gen.choose(1, 3)
    } yield RelCfg(e, o)
    val genIds = for { ea <- Gen.choose(0, 1); eb <- Gen.choose(ea, 1) } yield (ea, eb)
    checkProp(Prop.forAll(genIds, genIv, genIv, genCfg) { case ((ea, eb), ia, ib, cfg) =>
      val x = Instance(events(ea), ia)
      val (first, _, rel) = OccurrenceKey.orientAndRelate(x, Instance(events(eb), ib), cfg)
      val inst = Array(ea, ia.start, ia.end, eb, ib.start, ib.end)
      Relations.pairCode(inst, 0, 1, cfg) == 2 * rel.ordinal + (if (ea == eb || first == x) 1 else 0)
    })
  }

  test("Rel ordering and sigils are stable") {
    assert(Rel.all.sorted == Vector(Rel.Follows, Rel.Contains, Rel.Overlaps).sortBy(_.sigil))
    assert(Rel.Follows.sigil == "->")
    assert(Rel.Contains.sigil == ">=")
    assert(Rel.Overlaps.sigil == "ol")
  }
}
