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
}
