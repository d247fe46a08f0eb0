package repro.baseline

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.core.{Decode, PropSupport}

class PSTreeSpec extends AnyFunSuite with PropSupport {

  private def e(s: String) = Decode.event(s)

  test("Summary.add merges timestamps within maxPer") {
    var l = Vector.empty[Summary]
    for (ts <- Seq(1, 2, 3, 7, 8, 11)) l = Summary.add(l, ts, 2)
    assert(l == Vector(Summary(1, 3, 3), Summary(7, 8, 2), Summary(11, 11, 1)))
  }

  test("Summary.add ignores a duplicate trailing timestamp") {
    var l = Vector.empty[Summary]
    for (ts <- Seq(4, 4, 5)) l = Summary.add(l, ts, 2)
    assert(l == Vector(Summary(4, 5, 2)))
  }

  test("Summary.merge unions runs and preserves total count") {
    val a = Vector(Summary(1, 3, 3), Summary(10, 12, 3))
    val b = Vector(Summary(4, 5, 2), Summary(20, 20, 1))
    val m = Summary.merge(a, b, 2)
    assert(Summary.totalCount(m) == 9)
    assert(m == Vector(Summary(1, 5, 5), Summary(10, 12, 3), Summary(20, 20, 1)))
  }

  test("Summary.merge with empties") {
    val a = Vector(Summary(1, 1, 1))
    assert(Summary.merge(a, Vector.empty, 2) == a)
    assert(Summary.merge(Vector.empty, a, 2) == a)
  }

  test("property: merge preserves total counts") {
    val genList = Gen.listOf(Gen.choose(1, 100)).map { ts =>
      ts.distinct.sorted.foldLeft(Vector.empty[Summary])((l, t) => Summary.add(l, t, 3))
    }
    checkProp(Prop.forAll(genList, genList) { (a, b) =>
      Summary.totalCount(Summary.merge(a, b, 3)) ==
        Summary.totalCount(a) + Summary.totalCount(b)
    })
  }

  test("tree build: shared prefixes collapse") {
    val tx = Seq(
      (1, Set(e("A:1"), e("B:1"))),
      (2, Set(e("A:1"), e("B:1"), e("C:1"))),
      (3, Set(e("A:1"))))
    val tree = PSTree.build(tx, maxPer = 2, minCount = 1)
    // Path A-B shared; nodes: A, B, C = 3.
    assert(tree.nodeCount == 3)
    assert(tree.header.keySet == Set(e("A:1"), e("B:1"), e("C:1")))
  }

  test("tree build: items below minCount are dropped") {
    val tx = Seq(
      (1, Set(e("A:1"), e("X:1"))),
      (2, Set(e("A:1"))),
      (3, Set(e("A:1"))))
    val tree = PSTree.build(tx, maxPer = 1, minCount = 2)
    assert(tree.header.keySet == Set(e("A:1")))
  }

  test("tail summaries accumulate the transaction timestamps") {
    val tx = Seq((1, Set(e("A:1"))), (2, Set(e("A:1"))), (9, Set(e("A:1"))))
    val tree = PSTree.build(tx, maxPer = 2, minCount = 1)
    val n = tree.nodesOf(e("A:1"))
    assert(n.size == 1)
    assert(n.head.summaries == Vector(Summary(1, 2, 2), Summary(9, 9, 1)))
  }

  test("rank orders items by descending support") {
    val tx = Seq(
      (1, Set(e("A:1"), e("B:1"))),
      (2, Set(e("A:1"))),
      (3, Set(e("B:1"), e("A:1"), e("C:1"))))
    val tree = PSTree.build(tx, maxPer = 2, minCount = 1)
    assert(tree.rank(e("A:1")) < tree.rank(e("B:1")))
    assert(tree.rank(e("B:1")) < tree.rank(e("C:1")))
    assert(tree.itemsBottomUp.last == e("A:1"))
  }

  test("pushUp moves summaries to the parent and detaches nodes") {
    val tx = Seq((1, Set(e("A:1"), e("B:1"))), (2, Set(e("A:1"), e("B:1"))))
    val tree = PSTree.build(tx, maxPer = 2, minCount = 1)
    val aNodeBefore = tree.nodesOf(e("A:1")).head
    assert(aNodeBefore.summaries.isEmpty) // tail is B's node
    tree.pushUp(e("B:1"))
    assert(tree.nodesOf(e("B:1")).isEmpty)
    assert(aNodeBefore.summaries == Vector(Summary(1, 2, 2)))
  }
}
