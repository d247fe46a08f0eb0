package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Prop, Test => SCTest}

/** Plain-scalacheck helper: run a Prop and assert it passed (the
  * scalatestplus bridge is not among the offline deps).
  */
trait PropSupport { self: AnyFunSuite =>
  def checkProp(prop: Prop, minTests: Int = 100): Unit = {
    val params = SCTest.Parameters.default.withMinSuccessfulTests(minTests)
    val res = SCTest.check(params, prop)
    assert(res.passed, s"property failed: ${res.status}")
  }
}

class GranularitySpec extends AnyFunSuite {

  test("coarseLength counts a trailing partial granule") {
    assert(Granularity.coarseLength(42, 3) == 14)
    assert(Granularity.coarseLength(43, 3) == 15)
    assert(Granularity.coarseLength(0, 3) == 0)
    assert(Granularity.coarseLength(3, Int.MaxValue) == 1) // fineLength + m - 1 exceeds an Int
  }
}
