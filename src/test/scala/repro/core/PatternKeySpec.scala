package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Relations.RelCfg

class PatternKeySpec extends AnyFunSuite {

  private val A = Event("A", "1")
  private val B = Event("B", "1")
  private val C = Event("C", "1")

  test("pairOrder enumerates (i,j) by j then i") {
    assert(PatternKey.pairOrder(1) == Vector.empty)
    assert(PatternKey.pairOrder(2) == Vector((0, 1)))
    assert(PatternKey.pairOrder(3) == Vector((0, 1), (0, 2), (1, 2)))
    assert(PatternKey.pairOrder(4) ==
      Vector((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)))
  }

  test("pairOrder extension property: order(k) = order(k-1) ++ new pairs") {
    for (k <- 2 to 6)
      assert(PatternKey.pairOrder(k) ==
        PatternKey.pairOrder(k - 1) ++ (0 until k - 1).map(i => (i, k - 1)))
  }

  test("relation count is validated against k") {
    intercept[IllegalArgumentException](PatternKey(Vector(A, B), Vector.empty))
    intercept[IllegalArgumentException](PatternKey(Vector(A), Vector((Rel.Follows, true))))
  }

  test("render: single event and oriented pairs") {
    assert(PatternKey.single(A).render == "A:1")
    assert(PatternKey(Vector(A, B), Vector((Rel.Follows, true))).render == "<(A:1 -> B:1)>")
    assert(PatternKey(Vector(A, B), Vector((Rel.Follows, false))).render == "<(B:1 -> A:1)>")
  }

  test("ofOccurrence computes oriented relations in pair order") {
    val t = Vector(
      Instance(A, Interval(1, 4)),
      Instance(B, Interval(2, 3)),
      Instance(C, Interval(6, 8)))
    val key = OccurrenceKey.ofOccurrence(Vector(A, B, C), t, RelCfg())
    // A contains B; A follows C; B follows C.
    assert(key.render == "<(A:1 >= B:1), (A:1 -> C:1), (B:1 -> C:1)>")
  }

  test("ofOccurrence orients by instance time, not slot order") {
    val t = Vector(Instance(A, Interval(5, 6)), Instance(B, Interval(1, 2)))
    val key = OccurrenceKey.ofOccurrence(Vector(A, B), t, RelCfg())
    assert(key.render == "<(B:1 -> A:1)>")
    assert(key.rels == Vector((Rel.Follows, false)))
  }

  test("ofOccurrence validates slot alignment") {
    intercept[IllegalArgumentException](
      OccurrenceKey.ofOccurrence(Vector(A, B), Vector(Instance(B, Interval(1, 1)),
        Instance(A, Interval(2, 2))), RelCfg()))
  }

  test("distinct orientations are distinct patterns") {
    val p1 = PatternKey(Vector(A, B), Vector((Rel.Follows, true)))
    val p2 = PatternKey(Vector(A, B), Vector((Rel.Follows, false)))
    assert(p1 != p2)
    assert(Set(p1, p2).size == 2)
  }
}
