package repro.core

import scala.collection.mutable

/** Hierarchical lookup hash structure for single events (Sec. IV-C, Fig. 4).
  *
  * - `eh` (single event hash table): candidate event → support set (sorted
  *   granule positions).
  * - `gh` (event granule hash table): candidate event → granule → its
  *   instances in that granule.
  */
final class HLH1 {
  val eh: mutable.LinkedHashMap[Event, Vector[Int]] = mutable.LinkedHashMap.empty
  val gh: mutable.HashMap[Event, Map[Int, Vector[Instance]]] = mutable.HashMap.empty

  /** Candidate events in canonical (sorted) order — group slots and the
    * Cartesian enumeration depend on this order being stable.
    */
  def candidates: Vector[Event] = eh.keysIterator.toVector.sorted
  def support(e: Event): Vector[Int] = eh.getOrElse(e, Vector.empty)
  def instancesAt(e: Event, granule: Int): Vector[Instance] =
    gh.get(e).flatMap(_.get(granule)).getOrElse(Vector.empty)

  /** Total stored entries — a machine-independent memory proxy. */
  def entryCount: Long =
    eh.valuesIterator.map(_.size.toLong).sum +
      gh.valuesIterator.map(_.valuesIterator.map(_.size.toLong).sum).sum
}

object HLH1 {
  /** One scan of D_SEQ building support sets and instance indexes for all
    * events, then (optionally, Apriori-like pruning) keeping only candidate
    * seasonal single events: maxSeason(E) >= minSeason.
    */
  def build(db: SeqDB, cfg: SeasonCfg, apriori: Boolean): HLH1 = {
    val sup = mutable.LinkedHashMap.empty[Event, mutable.ArrayBuffer[Int]]
    val inst = mutable.HashMap.empty[Event, mutable.LinkedHashMap[Int, Vector[Instance]]]
    for (row <- db.rows) {
      val byEvent = row.instances.groupBy(_.event)
      for ((e, is) <- byEvent) {
        sup.getOrElseUpdate(e, mutable.ArrayBuffer.empty) += row.pos
        inst.getOrElseUpdate(e, mutable.LinkedHashMap.empty).update(row.pos, is)
      }
    }
    val h = new HLH1
    for ((e, s) <- sup if !apriori || Seasonality.isCandidate(s.size, cfg)) {
      h.eh.update(e, s.toVector)
      h.gh.update(e, inst(e).toMap)
    }
    h
  }
}

/** Hierarchical lookup hash structure for k-event groups and patterns
  * (Sec. IV-D, Fig. 5), as one table: `groups` maps each candidate k-event
  * group (canonical sorted event vector) to the [[GroupMined]] that the
  * kernel returned for it. That value holds all three levels of Fig. 5:
  * the group's support set (EH_k), its candidate patterns with their
  * support sets (PH_k), and each pattern's occurrence instance tuples,
  * aligned with its support set (GH_k).
  */
final class HLHk(val k: Int) {
  val groups: mutable.LinkedHashMap[Vector[Event], GroupMined] = mutable.LinkedHashMap.empty

  /** Every group's candidate patterns, group by group in stored order. */
  def patterns: Iterator[MinedPattern] = groups.valuesIterator.flatMap(_.patterns)

  /** Per group, support size + pattern count; per pattern, support size +
    * occurrence tuples × k.
    */
  def entryCount: Long =
    groups.valuesIterator.map(g => g.sup.size.toLong + g.patterns.size).sum +
      patterns.map(p => p.support.size + p.occs.iterator.map(_.size.toLong).sum * k).sum
}

object HLHk {
  /** Level 1 presented as an HLH_k, so that level 2 extends it exactly as
    * level k extends level k-1: group `(e)` of each candidate event, in
    * canonical order, holds the one pattern `(e)` with e's support set and,
    * at each supporting granule, e's instances there as 1-tuples.
    * A view for mining only — it holds nothing HLH1 does not, and the
    * retained-entry count (`MiningStats.peakEntries`) does not include it.
    */
  def level1(hlh1: HLH1): HLHk = {
    val view = new HLHk(1)
    for (e <- hlh1.candidates) {
      val sup = hlh1.support(e)
      val occs = sup.map(g => hlh1.instancesAt(e, g).map(Vector(_)))
      view.groups.update(Vector(e),
        GroupMined(Vector(e), sup, Vector(MinedPattern(PatternKey.single(e), sup, occs)), 0L, 0L))
    }
    view
  }
}
