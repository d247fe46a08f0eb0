package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}

class SequenceDBSpec extends AnyFunSuite with PropSupport {

  /** Temporal sequence of one series inside one coarse granule (Def. 3.12):
    * its symbols from fine position `fineStart` on, consecutive identical
    * symbols grouped into instances, walked position by position.
    */
  private def sequenceOf(seriesId: String, symbols: Vector[String], fineStart: Int): Vector[Instance] = {
    val out = Vector.newBuilder[Instance]
    var lo = 0
    for (i <- 1 to symbols.size if i == symbols.size || symbols(i) != symbols(lo)) {
      out += Instance(Event(seriesId, symbols(lo)), Interval(fineStart + lo, fineStart + i - 1))
      lo = i
    }
    out.result()
  }

  /** D_SEQ's rows by Def. 3.13 position by position: each granule's slice
    * of each series through [[sequenceOf]], rows in canonical order.
    */
  private def perPositionBuild(syb: SymbolicDB, m: Int): Vector[GranuleRow] =
    (1 to Granularity.coarseLength(syb.length, m)).toVector.map { g =>
      val lo = (g - 1) * m
      GranuleRow(g, syb.series.flatMap(s => sequenceOf(s.id, Decode.symbols(s).slice(lo, lo + m), lo + 1))
        .sorted(Instance.ordering))
    }

  test("sequenceOf run-length-encodes consecutive identical symbols") {
    val seq = sequenceOf("C", Vector("1", "1", "0"), fineStart = 1)
    assert(seq == Vector(
      Instance(Event("C", "1"), Interval(1, 2)),
      Instance(Event("C", "0"), Interval(3, 3))))
  }

  test("sequenceOf with a non-unit fine start offset") {
    val seq = sequenceOf("D", Vector("0", "0", "0"), fineStart = 10)
    assert(seq == Vector(Instance(Event("D", "0"), Interval(10, 12))))
  }

  test("sequenceOf of an empty slice is empty") {
    assert(sequenceOf("X", Vector.empty, 1).isEmpty)
  }

  test("sequenceOf alternating symbols produces one instance each") {
    val seq = sequenceOf("X", Vector("a", "b", "a"), 1)
    assert(seq.size == 3)
    assert(seq.map(i => Decode.duration(i.interval)).forall(_ == 1))
  }

  test("build: Table IV granule count and granularity") {
    val db = Fixtures.tableIV
    assert(db.size == 14)
    assert(db.m == 3)
  }

  test("build: Table IV H1 sequences match the paper") {
    val h1 = Fixtures.tableIV.row(1)
    val expected = Vector(
      "(C:1,[1,2])", "(C:0,[3,3])", "(D:1,[1,1])", "(D:0,[2,3])",
      "(F:0,[1,2])", "(F:1,[3,3])", "(M:1,[1,3])", "(N:1,[1,2])", "(N:0,[3,3])")
    assert(h1.instances.map(_.toString).toSet == expected.toSet)
  }

  test("build: Table IV H5 — whole-granule runs") {
    val h5 = Fixtures.tableIV.row(5)
    val expected = Vector(
      "(C:0,[13,15])", "(D:0,[13,15])", "(F:1,[13,15])", "(M:1,[13,15])", "(N:1,[13,15])")
    assert(h5.instances.map(_.toString) == expected.sorted)
  }

  test("build: Table IV H12 — the M:0 / N:1 full-granule case") {
    val h12 = Fixtures.tableIV.row(12)
    val expected = Set(
      "(C:1,[34,35])", "(C:0,[36,36])", "(D:1,[34,34])", "(D:0,[35,36])",
      "(F:0,[34,35])", "(F:1,[36,36])", "(M:0,[34,36])", "(N:1,[34,36])")
    assert(h12.instances.map(_.toString).toSet == expected)
  }

  test("build: Table IV H14 — last granule") {
    val h14 = Fixtures.tableIV.row(14)
    val expected = Set(
      "(C:1,[40,41])", "(C:0,[42,42])", "(D:1,[40,41])", "(D:0,[42,42])",
      "(F:0,[40,41])", "(F:1,[42,42])", "(M:0,[40,42])", "(N:0,[40,42])")
    assert(h14.instances.map(_.toString).toSet == expected)
  }

  test("build keeps a trailing partial granule") {
    val syb = SymbolicDB(Vector(SymbolicSeries("X", Vector("1", "1", "0", "1", "1"))))
    val db = SequenceDB.build(syb, 3)
    assert(db.size == 2)
    assert(db.row(2).instances == Vector(Instance(Event("X", "1"), Interval(4, 5))))
  }

  test("build with m = 1: every granule holds unit instances") {
    val syb = SymbolicDB(Vector(SymbolicSeries("X", Vector("1", "0", "1"))))
    val db = SequenceDB.build(syb, 1)
    assert(db.size == 3)
    assert(db.rows.forall(_.instances.forall(i => Decode.duration(i.interval) == 1)))
  }

  test("instances within each granule are canonically ordered") {
    for (row <- Fixtures.tableIV.rows)
      assert(row.instances == row.instances.sorted(Instance.ordering))
  }

  test("every instance lies inside its granule's fine range") {
    val db = Fixtures.tableIV
    for (row <- db.rows; i <- row.instances) {
      assert(i.start >= (row.pos - 1) * db.m + 1 && i.end <= row.pos * db.m)
    }
  }

  test("build equals the per-position mapping for m in {1, 3, n, n + 1}") {
    val rnd = new scala.util.Random(5)
    for (trial <- 1 to 200) {
      val n = 1 + rnd.nextInt(60)
      // Runs of 1-8 positions over symbols 0-2; 3 does not divide most n,
      // so a trailing partial granule is common.
      val syb = SymbolicDB(Vector.tabulate(1 + rnd.nextInt(4)) { k =>
        val symbols = Vector.fill(n)(rnd.nextInt(3).toString).scanLeft(("0", 0)) {
          case ((prev, left), fresh) => if (left > 0) (prev, left - 1) else (fresh, rnd.nextInt(8))
        }.tail.map(_._1)
        SymbolicSeries(s"S$k", symbols)
      })
      for (m <- Seq(1, 3, n, n + 1))
        assert(SequenceDB.build(syb, m).rows == perPositionBuild(syb, m), s"trial $trial at m $m")
    }
  }

  test("property: build's rows equal the per-position mapping, and its dictionary their events") {
    // Each series draws its own alphabet, so events differ by series, and
    // ids such as S10 < S2 sort as strings.
    val series = for {
      alphabet <- Gen.choose(1, 3).flatMap(Gen.pick(_, Seq("0", "1", "a", "b", "10")))
      runs <- Gen.nonEmptyListOf(Gen.zip(Gen.oneOf(alphabet.toSeq), Gen.choose(1, 6)))
    } yield runs.flatMap { case (symbol, len) => Seq.fill(len)(symbol) }.toVector
    val dbs = for {
      n <- Gen.choose(1, 40)
      k <- Gen.choose(1, 12)
      ss <- Gen.listOfN(k, series.map(v => Iterator.continually(v).flatten.take(n).toVector))
    } yield SymbolicDB(ss.toVector.zipWithIndex.map { case (v, i) => SymbolicSeries(s"S${11 - i}", v) })
    checkProp(Prop.forAllNoShrink(dbs, Gen.oneOf(1, 3, 7)) { (syb, m) =>
      val db = SequenceDB.build(syb, m)
      val rows = perPositionBuild(syb, m)
      db.m == m && db.rows == rows &&
        db.allEvents == rows.flatMap(_.instances.map(_.event)).distinct.sorted
    }, minTests = 200)
  }

  test("build rejects an m and event count whose instance keys overflow a Long") {
    def syb(symbols: Int) = SymbolicDB(Vector(SymbolicSeries("X", Vector.tabulate(symbols)(_.toString))))
    val m = 1 << 30 // 2^60 (start, end) pairs in a granule: 7 events fit, 8 do not
    assert(SequenceDB.build(syb(7), m).rows == perPositionBuild(syb(7), m))
    val e = intercept[IllegalArgumentException](SequenceDB.build(syb(8), m))
    assert(e.getMessage.contains("overflow"), e.getMessage)
  }

  /** The instances `SequenceDB.encode` emits for `runs`, with their granules. */
  private def encoded(runs: Seq[(Int, Int, String)], m: Int): Vector[(Int, Instance)] = {
    val out = Vector.newBuilder[(Int, Instance)]
    SequenceDB.encode("X", runs, m)((g, symbol, start, end) =>
      out += ((g, Instance(Event("X", symbol), Interval(start, end)))))
    out.result()
  }

  test("encode: runs in fragments and out of order equal one ordered pass") {
    val rnd = new scala.util.Random(11)
    for (trial <- 1 to 200) {
      val n = 1 + rnd.nextInt(40)
      val m = 1 + rnd.nextInt(6)
      val symbols = Vector.fill(n)(rnd.nextInt(3).toString)
      val ordered = SequenceDB.build(SymbolicDB(Vector(SymbolicSeries("X", symbols))), m)
        .rows.flatMap(r => r.instances.map(r.pos -> _))
      // Cut positions 1..n into fragments of one symbol, then shuffle them.
      val cuts = (1 until n).filter(p => symbols(p) != symbols(p - 1) || rnd.nextInt(3) == 0)
      val bounds = (0 +: cuts :+ n).sliding(2).map { case Seq(a, b) => (a + 1, b) }.toVector
      val fragments = rnd.shuffle(bounds.map { case (a, b) => (a, b, symbols(a - 1)) })
      assert(encoded(fragments, m) == ordered, s"trial $trial: $fragments at m $m")
    }
  }

  test("encode: a run is cut at each granule boundary, a trailing partial granule kept") {
    val x0 = Event("X", "0")
    val x1 = Event("X", "1")
    assert(encoded(Seq((2, 11, "1"), (1, 1, "0")), 4) == Vector(
      1 -> Instance(x0, Interval(1, 1)), 1 -> Instance(x1, Interval(2, 4)),
      2 -> Instance(x1, Interval(5, 8)), 3 -> Instance(x1, Interval(9, 11))))
  }

  test("encode rejects a gap, a repeat and a first position other than 1") {
    def msg(runs: (Int, Int, String)*) =
      intercept[IllegalArgumentException](encoded(runs, 3)).getMessage
    assert(msg((1, 3, "a"), (5, 6, "a")) == "missing value at series X, position 4")
    assert(msg((1, 3, "a"), (3, 4, "b")) == "repeated value at series X, position 3")
    assert(msg((1, 2, "a"), (1, 2, "a")) == "repeated value at series X, position 1")
    assert(msg((2, 3, "a")) == "positions of series X start at 2, not 1")
  }
}
