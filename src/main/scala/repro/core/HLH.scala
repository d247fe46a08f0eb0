package repro.core

import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** HLH_k (Sec. IV-D, Fig. 5), integer-encoded, as one table: each candidate
  * k-event group's [[GroupMined]] in mining order (tasks name a group by its
  * index), holding the group's support set (EH_k), its candidate patterns
  * and their support sets (PH_k) and occurrence tuples (GH_k). `pairRels`
  * and `pairSup` are the event-pair table and pair supports the level was
  * mined with ([[STPM.mineLevel]]), which the next level reuses.
  */
class HLHk private[core] (val k: Int, val groups: IndexedSeq[GroupMined], private[core] val pairRels: Array[Int],
                          private[core] val pairSup: Array[Long]) extends Serializable {
  def patterns: Iterator[MinedPattern] = groups.iterator.flatMap(_.patterns)

  /** Stored entries, a machine-independent memory proxy: per group, support
    * size + pattern count; per pattern, support size + occurrence tuples × k.
    */
  def entryCount: Long =
    groups.iterator.map(g => g.sup.length.toLong + g.patterns.length).sum +
      patterns.map(p => p.support.length.toLong + p.occ.length).sum
}

/** HLH_1 (Sec. IV-C, Fig. 4) as a level-1 HLH_k, so that level 2 extends it
  * as level k extends k-1. Event ids index `candidates`, in [[Event.ordering]].
  * `granules(g - 1)` holds granule g's candidate instances as (event id,
  * start, end) triples in [[Instance.ordering]]; an instance is its index
  * there. Group e holds the pattern `(e)`: e's support set (EH) and its
  * instances at each supporting granule as 1-tuples (GH).
  */
final class HLH1 private (val candidates: Vector[Event], val granules: Array[Array[Int]],
                          groups: IndexedSeq[GroupMined]) extends HLHk(1, groups, Array.emptyIntArray, Array.emptyLongArray) {
  def support(e: Int): Array[Int] = groups(e).sup

  def eh: Map[Event, Vector[Int]] = candidates.zip(groups.map(_.sup.toVector)).toMap

  /** GH as a dense granule index: per event e, |D_SEQ| + 2 offsets such
    * that e's instances at granule g are the 1-tuples `index(e)(g) until
    * index(e)(g + 1)` of its pattern `(e)`; an empty range means e is absent.
    * Built on first use and never serialized, so the `Level` broadcast
    * does not carry it.
    */
  @transient private[repro] lazy val index: Array[Array[Int]] = groups.iterator.map { gm =>
    val p = gm.patterns(0)
    val at = new Array[Int](granules.length + 2)
    var j = 0
    for (g <- 1 until at.length) {
      if (j < p.support.length && p.support(j) < g) j += 1
      at(g) = p.occOff(j)
    }
    at
  }.toArray

  /** The granules of the sorted support `sup` at which event e occurs. */
  private[core] def restrict(sup: Array[Int], e: Int): Array[Int] = {
    val at = index(e)
    val out = new mutable.ArrayBuilder.ofInt
    var i = 0
    while (i < sup.length) {
      val g = sup(i)
      if (at(g) < at(g + 1)) out.addOne(g)
      i += 1
    }
    out.result()
  }

  /** The output key of a pattern of `group` with relation codes `rels`. */
  def key(group: Array[Int], rels: Array[Byte]): PatternKey =
    PatternKey.decode(group.toVector.map(candidates), rels)

  /** The pattern of `group` with relation codes `rels` and support set
    * `support`, if it is frequent seasonal; its key and seasons are built
    * only then.
    */
  def frequent(group: Array[Int], rels: Array[Byte], support: Array[Int], cfg: SeasonCfg): Option[FrequentPattern] =
    if (!Seasonality.isFrequentSeasonal(support, cfg)) None
    else Some(FrequentPattern(key(group, rels), support.toVector,
      Seasonality.seasonsOf(ArraySeq.unsafeWrapArray(support), cfg)))

  /** Per event, support size + instance count. */
  override def entryCount: Long = groups.iterator.map(g => g.sup.length.toLong + g.patterns(0).occ.length).sum
}

object HLH1 {
  /** One scan of D_SEQ's triples counting each event's support set, then
    * one that keeps the events `keep` admits, (with Apriori-like pruning)
    * only the candidate seasonal ones ([[Seasonality.isCandidate]]), and
    * re-indexes their instances. Candidate ids follow D_SEQ's, so they stay
    * in [[Event.ordering]].
    */
  def build(db: SeqDB, cfg: SeasonCfg, apriori: Boolean, keep: Event => Boolean = _ => true): HLH1 = {
    // While loops and a constant default: a closure per row or instance
    // would allocate until the JIT removes it, and allocation per op
    // would drift from op to op.
    val events = db.allEvents
    val sups = Array.fill(events.size)(new PatternBuf(Array.emptyByteArray, keepOcc = false))
    var g = 1
    while (g <= db.size) {
      val inst = db.granules(g - 1)
      var i = 0
      while (i < inst.length) { sups(inst(i)).add(g, Array.emptyIntArray, 0, 0, 0); i += 3 }
      g += 1
    }
    val kept = events.indices.filter(e => keep(events(e)) &&
      (!apriori || Seasonality.isCandidate(sups(e).granules, sups(e).supportSize, cfg)))
    val id = Array.fill(events.size)(-1)
    for ((e, c) <- kept.zipWithIndex) id(e) = c
    val single = kept.map(_ => new PatternBuf(Array.emptyByteArray))
    val granules = Array.tabulate(db.size) { g0 =>
      val inst = db.granules(g0)
      val flat = new mutable.ArrayBuilder.ofInt
      var i = 0
      while (i < inst.length) {
        val c = id(inst(i))
        if (c >= 0) {
          single(c).add(g0 + 1, Array.emptyIntArray, 0, 0, flat.length / 3)
          flat.addOne(c).addOne(inst(i + 1)).addOne(inst(i + 2))
        }
        i += 3
      }
      flat.result()
    }
    new HLH1(kept.map(events).toVector, granules, single.indices.map { c =>
      val p = single(c).result()
      new GroupMined(Array(c), p.support, Array(p), 0L, 0L)
    })
  }
}

/** The support set and occurrence tuples of one pattern, growing while its
  * group is mined; granules arrive in ascending order. Without `keepOcc`
  * only the support set is kept: the result's offsets are all 0 and it
  * holds no tuples. (`addOne`, not `+=`, which would box each Int.)
  */
private[repro] final class PatternBuf(val rels: Array[Byte], keepOcc: Boolean = true) {
  private var sup = new Array[Int](4)
  private val occOff, occ = new mutable.ArrayBuilder.ofInt
  private var size, last, tuples = 0

  /** The support set so far is `granules(0 until supportSize)`. */
  def granules: Array[Int] = sup
  def supportSize: Int = size

  /** Add the tuple `src(from until from + w) :+ i` at granule g >= 1. */
  def add(g: Int, src: Array[Int], from: Int, w: Int, i: Int): Unit = {
    if (g != last) {
      if (size == sup.length) sup = java.util.Arrays.copyOf(sup, 2 * size)
      sup(size) = g; size += 1
      if (keepOcc) occOff.addOne(tuples)
      last = g
    }
    if (keepOcc) {
      var s = from
      while (s < from + w) { occ.addOne(src(s)); s += 1 }
      occ.addOne(i)
      tuples += 1
    }
  }

  def result(): MinedPattern = {
    val off = if (keepOcc) occOff.addOne(tuples).result() else new Array[Int](size + 1)
    new MinedPattern(rels, java.util.Arrays.copyOf(sup, size), off, occ.result())
  }
}
