package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}

class ModelSpec extends AnyFunSuite with PropSupport {

  test("event key and parse round-trip") {
    val e = Event("C", "1")
    assert(e.key == "C:1")
    assert(Decode.event("C:1") == e)
    assert(Decode.event("Temp:high") == Event("Temp", "high"))
  }

  test("event parse keeps the last colon as separator") {
    assert(Decode.event("a:b:c") == Event("a:b", "c"))
    intercept[IllegalArgumentException](Decode.event("nocolon"))
  }

  test("event ordering is (series, symbol) lexicographic") {
    val v = Vector(Event("D", "0"), Event("C", "1"), Event("C", "0")).sorted
    assert(v == Vector(Event("C", "0"), Event("C", "1"), Event("D", "0")))
  }

  test("interval duration is inclusive; empty intervals rejected") {
    assert(Decode.duration(Interval(3, 3)) == 1)
    assert(Decode.duration(Interval(1, 4)) == 4)
    intercept[IllegalArgumentException](Interval(5, 4))
  }

  test("instance ordering is chronological with deterministic ties") {
    val a = Instance(Event("C", "1"), Interval(1, 2))
    val b = Instance(Event("D", "1"), Interval(1, 2))
    val c = Instance(Event("C", "1"), Interval(1, 3))
    val d = Instance(Event("A", "1"), Interval(2, 2))
    assert(Vector(d, c, b, a).sorted(Instance.ordering) == Vector(a, b, c, d))
  }

  test("property: instance ordering agrees with the (start, end, series, symbol) tuple order") {
    val byTuple: Ordering[Instance] =
      Ordering.by((i: Instance) => (i.start, i.end, i.event.series, i.event.symbol))
    // Few values per field, so starts, ends and whole events often tie.
    val instance = for {
      start <- Gen.choose(1, 3)
      len <- Gen.choose(0, 2)
      series <- Gen.oneOf("A", "B", "AB")
      symbol <- Gen.oneOf("0", "1", "10")
    } yield Instance(Event(series, symbol), Interval(start, start + len))
    checkProp(Prop.forAll(instance, instance) { (a, b) =>
      Integer.signum(Instance.ordering.compare(a, b)) == Integer.signum(byTuple.compare(a, b))
    }, minTests = 500)
    val sample = Gen.listOfN(200, instance).sample.get.toVector
    assert(sample.sorted(Instance.ordering) == sample.sorted(byTuple))
  }

  test("granule row rejects out-of-order instances") {
    val a = Instance(Event("C", "1"), Interval(4, 4))
    val b = Instance(Event("D", "1"), Interval(1, 2))
    intercept[IllegalArgumentException](GranuleRow(1, Vector(a, b)))
    GranuleRow(1, Vector(b, a)) // ordered: fine
  }

  test("granule row event lookup") {
    val a = Instance(Event("C", "1"), Interval(1, 2))
    val b = Instance(Event("C", "0"), Interval(3, 3))
    val row = GranuleRow(1, Vector(a, b))
    assert(row.events == Set(Event("C", "1"), Event("C", "0")))
    assert(Decode.instancesOf(row, Event("C", "1")) == Vector(a))
    assert(Decode.instancesOf(row, Event("X", "9")).isEmpty)
  }

  test("SeqDB requires dense 1-based granule positions") {
    // Dense by construction: a granule without instances is an empty row.
    val c1 = Event("C", "1")
    val db = SeqDB.assemble(3, Vector(c1), 3)(sink => sink(3, 0, 7, 8))
    assert(db.size == 3 && db.rows.map(_.pos) == Vector(1, 2, 3))
    assert(db.rows.map(_.instances) == Vector(Vector.empty, Vector.empty, Vector(Instance(c1, Interval(7, 8)))))
  }

  test("SeqDB.allEvents is sorted and distinct") {
    val db = Fixtures.tableIV
    assert(db.allEvents == db.allEvents.distinct.sorted)
    assert(db.allEvents.size == 10) // 5 series x 2 symbols
  }

  test("SeqDB.row is 1-based") {
    val db = Fixtures.tableIV
    assert(db.row(1).pos == 1)
    assert(db.row(14).pos == 14)
  }
}
