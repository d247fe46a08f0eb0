package repro.baseline

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.core.{Decode, Event}

class PSGrowthSpec extends AnyFunSuite {

  private def e(s: String) = Decode.event(s)

  /** Brute-force reference: all itemsets with support >= minCount. */
  private def bruteForce(tx: Seq[(Int, Set[Event])], minCount: Int,
                         maxSize: Int): Set[Vector[Event]] = {
    val items = tx.flatMap(_._2).distinct.toVector.sorted
    (1 to maxSize).flatMap { k =>
      items.combinations(k).filter { set =>
        tx.count { case (_, is) => set.forall(is.contains) } >= minCount
      }
    }.toSet
  }

  private def randomTx(n: Int, nItems: Int, seed: Long): Seq[(Int, Set[Event])] = {
    val rnd = new Random(seed)
    (1 to n).map { ts =>
      (ts, (0 until nItems).filter(_ => rnd.nextDouble() < 0.35)
        .map(i => e(s"I$i:1")).toSet)
    }
  }

  test("recurring itemsets equal the brute-force support-qualified sets") {
    for (seed <- 1L to 5L) {
      val tx = randomTx(40, 5, seed)
      val mined = PSGrowth.mine(tx, maxPer = 3, minCount = 5, maxSize = 3)
        .map(_.itemset).toSet
      val expected = bruteForce(tx, minCount = 5, maxSize = 3)
      assert(mined == expected, s"seed=$seed\n  missing=${expected -- mined}\n  extra=${mined -- expected}")
    }
  }

  test("summaries carry the itemset's total support") {
    val tx = randomTx(60, 4, 9L)
    val mined = PSGrowth.mine(tx, maxPer = 2, minCount = 4, maxSize = 2)
    for (r <- mined) {
      val trueSupport = tx.count { case (_, is) => r.itemset.forall(is.contains) }
      assert(r.totalCount == trueSupport,
        s"${r.itemset}: summaries say ${r.totalCount}, truth $trueSupport")
    }
  }

  test("each itemset is emitted exactly once") {
    val tx = randomTx(50, 5, 3L)
    val mined = PSGrowth.mine(tx, maxPer = 3, minCount = 3, maxSize = 3).map(_.itemset)
    assert(mined.size == mined.distinct.size)
  }

  test("maxSize caps the itemset length") {
    val tx = randomTx(50, 5, 4L)
    val mined = PSGrowth.mine(tx, maxPer = 3, minCount = 2, maxSize = 2)
    assert(mined.forall(_.itemset.size <= 2))
  }

  test("minCount = |tx| keeps only universal items") {
    val tx = Seq(
      (1, Set(e("A:1"), e("B:1"))),
      (2, Set(e("A:1"))),
      (3, Set(e("A:1"), e("B:1"))))
    val mined = PSGrowth.mine(tx, maxPer = 1, minCount = 3, maxSize = 2)
    assert(mined.map(_.itemset) == Vector(Vector(e("A:1"))))
  }

  test("stats count trees and itemsets") {
    val stats = new PSGrowth.Stats
    PSGrowth.mine(randomTx(40, 4, 5L), 3, 4, 3, stats)
    assert(stats.treeNodesBuilt > 0)
    assert(stats.itemsetsEmitted > 0)
  }
}
