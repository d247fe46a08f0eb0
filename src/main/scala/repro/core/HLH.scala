package repro.core

import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** HLH_k (Sec. IV-D, Fig. 5), integer-encoded, as one table: each candidate
  * k-event group's [[GroupMined]] in mining order (tasks name a group by its
  * index), holding the group's support set (EH_k), its candidate patterns
  * and their support sets (PH_k) and occurrence tuples (GH_k). `pairRels`
  * is the event-pair table the level was mined with ([[STPM.mineLevel]]),
  * which the next level reuses.
  */
class HLHk private[core] (val k: Int, val groups: IndexedSeq[GroupMined], private[core] val pairRels: Array[Int])
    extends Serializable {
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
  * instances at each supporting granule as 1-tuples (GH). `totalEvents`
  * counts the distinct events of D_SEQ, candidates or not.
  */
final class HLH1 private (val candidates: Vector[Event], val granules: Array[Array[Int]], val totalEvents: Int,
                          groups: IndexedSeq[GroupMined]) extends HLHk(1, groups, Array.emptyIntArray) {
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
  /** One scan of D_SEQ building support sets and instance indexes for the
    * events `keep` admits, (with Apriori-like pruning) only the candidate
    * seasonal ones ([[Seasonality.isCandidate]]). Each instance's event is
    * hashed once, to a first-seen id that the rest of the build uses.
    */
  def build(db: SeqDB, cfg: SeasonCfg, apriori: Boolean, keep: Event => Boolean = _ => true): HLH1 = {
    // While loops and a constant default: a closure per row or instance
    // would allocate until the JIT removes it, and allocation per op
    // would drift from op to op.
    val seen = mutable.HashMap.empty[Event, Int]
    val sups = mutable.ArrayBuffer.empty[PatternBuf] // by first-seen id, the support set
    val seenIds = db.rows.map { row =>
      val ids = new Array[Int](row.instances.size)
      var i = 0
      while (i < ids.length) {
        val e = row.instances(i).event
        ids(i) = seen.getOrElse(e, -1)
        if (ids(i) < 0) { ids(i) = seen.size; seen(e) = ids(i); sups += new PatternBuf(Array.emptyByteArray, keepOcc = false) }
        sups(ids(i)).add(row.pos, Array.emptyIntArray, 0, 0, 0)
        i += 1
      }
      ids
    }
    val events = new Array[Event](seen.size)
    for ((e, s) <- seen) events(s) = e
    val kept = events.indices.filter(s => keep(events(s)) &&
      (!apriori || Seasonality.isCandidate(sups(s).granules, sups(s).supportSize, cfg))).sortBy(events)
    val id = Array.fill(events.length)(-1)
    for ((s, e) <- kept.zipWithIndex) id(s) = e
    val single = kept.map(_ => new PatternBuf(Array.emptyByteArray))
    val granules = db.rows.map { row =>
      val ids = seenIds(row.pos - 1)
      val flat = new mutable.ArrayBuilder.ofInt
      var i = 0
      while (i < ids.length) {
        val e = id(ids(i))
        if (e >= 0) {
          single(e).add(row.pos, Array.emptyIntArray, 0, 0, flat.length / 3)
          flat.addOne(e).addOne(row.instances(i).start).addOne(row.instances(i).end)
        }
        i += 1
      }
      flat.result()
    }.toArray
    new HLH1(kept.map(events).toVector, granules, events.length, single.indices.map { e =>
      val p = single(e).result()
      new GroupMined(Array(e), p.support, Array(p), 0L, 0L)
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
