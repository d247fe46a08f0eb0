package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}

class SymbolizerSpec extends AnyFunSuite with PropSupport {

  test("thresholds: the paper's ON/OFF example (Def. 3.7)") {
    // X = 1.82, 1.25, 0.46, 0.0 with a single cut at 0.5 → 1,1,0,0.
    val xs = Vector(1.82, 1.25, 0.46, 0.0)
    assert(Symbolizer.thresholds(xs, Vector(0.5)) == Vector("1", "1", "0", "0"))
  }

  test("thresholds: multi-cut binning boundaries are left-closed") {
    val cuts = Vector(1.0, 2.0)
    assert(Symbolizer.thresholds(Vector(0.5, 1.0, 1.5, 2.0, 9.0), cuts) ==
      Vector("0", "1", "1", "2", "2"))
  }

  test("thresholds reject a NaN value, naming its position") {
    val e = intercept[IllegalArgumentException](
      Symbolizer.thresholds(Vector(0.2, 0.7, Double.NaN), Vector(0.5)))
    assert(e.getMessage.contains("position 3"), e.getMessage)
  }

  test("thresholds validate the cut list") {
    intercept[IllegalArgumentException](Symbolizer.thresholds(Vector(1.0), Vector.empty))
    intercept[IllegalArgumentException](Symbolizer.thresholds(Vector(1.0), Vector(2.0, 1.0)))
  }

  test("quantileCuts produce at most alpha-1 ascending cuts") {
    val vs = (1 to 100).toVector.map(_.toDouble)
    val cuts = Symbolizer.quantileCuts(vs, 4)
    assert(cuts.size == 3)
    assert(cuts == cuts.sorted)
  }

  test("quantiles: equi-depth bins on uniform data are balanced") {
    val vs = (1 to 100).toVector.map(_.toDouble)
    val syms = Symbolizer.quantiles(vs, 4)
    val counts = syms.groupBy(identity).view.mapValues(_.size).toMap
    assert(counts.keySet == Set("0", "1", "2", "3"))
    assert(counts.values.forall(c => c >= 20 && c <= 30))
  }

  test("quantiles on constant data collapse to one symbol") {
    val vs = Vector.fill(10)(7.0)
    // All cuts coincide → distinct leaves a single cut; everything lands
    // in the top bin.
    val syms = Symbolizer.quantiles(vs, 3)
    assert(syms.distinct.size == 1)
  }

  test("property: symbolization is monotone in the value") {
    val genVals = Gen.listOfN(50, Gen.choose(-100.0, 100.0)).map(_.toVector)
    checkProp(Prop.forAll(genVals) { vs =>
      vs.isEmpty || {
        val cuts = Vector(-10.0, 0.0, 10.0)
        val syms = Symbolizer.thresholds(vs, cuts)
        vs.zip(syms).combinations(2).forall {
          case Seq((v1, s1), (v2, s2)) => (v1 <= v2) == (s1.toInt <= s2.toInt) ||
            s1 == s2
          case _ => true
        }
      }
    }, minTests = 30)
  }

  test("symbolicDB aligns series and applies per-series alphabets") {
    val raw = Vector(
      ("X", (1 to 20).toVector.map(_.toDouble)),
      ("Y", (1 to 20).toVector.map(i => (21 - i).toDouble)))
    val db = Symbolizer.symbolicDB(raw, 2)
    assert(db.ids == Vector("X", "Y"))
    assert(db.length == 20)
    assert(db.byId("X").symbols.take(10).forall(_ == "0"))
    assert(db.byId("Y").symbols.take(10).forall(_ == "1"))
  }
}
