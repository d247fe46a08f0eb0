package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Experiments

/** Figs. 7–10 as a table. In the paper A-STPM is the fastest and
  * lightest, and E-STPM beats the APS-growth baseline in runtime and
  * memory. Asserted here: the runtime order A-STPM < E-STPM < APS-growth,
  * and that A-STPM retains no more entries than E-STPM. The memory order
  * between E-STPM and APS-growth follows the paper's only at minSeason 16
  * (E-STPM retains more entries than the PS-tree nodes APS-growth builds
  * at minSeason 8; see `results/figRuntimeMemory.txt`) and is not
  * asserted.
  */
class FigRuntimeMemory extends AnyFunSuite {
  test("Figs. 7-10: runtime & memory, A-STPM vs E-STPM vs APS-growth") {
    val t = Experiments.runtimeMemory()
    BenchOut.emit("figRuntimeMemory", t)
    for (r <- t.rows) {
      val aMs = r(2).toLong; val eMs = r(4).toLong; val bMs = r(5).toLong
      val aEntries = r(6).toLong; val eEntries = r(7).toLong
      // Ordering claims, without slack: all three times are medians of 5
      // runs (APS-growth / E-STPM is 38-84x in results/figRuntimeMemory.txt).
      assert(aMs <= eMs, s"A-STPM ($aMs ms) not faster than E-STPM ($eMs ms): $r")
      assert(eMs <= bMs, s"E-STPM ($eMs ms) not faster than the baseline ($bMs ms): $r")
      assert(bMs > aMs, s"baseline ($bMs ms) not slower than A-STPM ($aMs ms): $r")
      assert(aEntries <= eEntries, s"A-STPM entries exceed E-STPM's: $r")
      // Result-set sanity: E-STPM and the baseline agree exactly.
      assert(r(10) == r(11), s"E-STPM and APS-growth pattern counts differ: $r")
    }
  }
}
