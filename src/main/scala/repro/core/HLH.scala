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

/** Value of the k-event hash table EH_k: the group's support set plus the
  * candidate seasonal patterns formed from the group (Fig. 5).
  */
final case class GroupEntry(support: Vector[Int], patterns: Vector[PatternKey])

/** Hierarchical lookup hash structure for k-event groups and patterns
  * (Sec. IV-D, Fig. 5).
  *
  * - `ehk` (k-event hash table): candidate k-event group (canonical sorted
  *   event vector) → its support set and the candidate patterns it formed.
  * - `phk` (pattern hash table): candidate pattern → support set.
  * - `ghk` (pattern granule hash table): (pattern, granule) → occurrence
  *   instance tuples (aligned to the pattern's slots) from which its
  *   relations were formed.
  */
final class HLHk(val k: Int) {
  val ehk: mutable.LinkedHashMap[Vector[Event], GroupEntry] = mutable.LinkedHashMap.empty
  val phk: mutable.LinkedHashMap[PatternKey, Vector[Int]] = mutable.LinkedHashMap.empty
  val ghk: mutable.HashMap[(PatternKey, Int), Vector[Vector[Instance]]] = mutable.HashMap.empty

  def groups: Vector[Vector[Event]] = ehk.keysIterator.toVector
  def patterns: Vector[PatternKey] = phk.keysIterator.toVector
  def support(p: PatternKey): Vector[Int] = phk.getOrElse(p, Vector.empty)
  def occurrencesAt(p: PatternKey, granule: Int): Vector[Vector[Instance]] =
    ghk.getOrElse((p, granule), Vector.empty)

  /** Events participating in any candidate pattern at this level — the
    * `FilteredF1` source for transitivity pruning (Lemma 4).
    */
  def patternEvents: Set[Event] = phk.keysIterator.flatMap(_.events).toSet

  def entryCount: Long =
    ehk.valuesIterator.map(g => g.support.size.toLong + g.patterns.size).sum +
      phk.valuesIterator.map(_.size.toLong).sum +
      ghk.valuesIterator.map(v => v.size.toLong * math.max(1, k)).sum
}

object HLHk {
  /** Level 1 presented as an HLH_k, so that level 2 extends it exactly as
    * level k extends level k-1: group `(e)` of each candidate event, in
    * canonical order, holds the one pattern `(e)` with e's support set, and
    * its occurrences at granule g are e's instances there as 1-tuples.
    * A view for mining only — it holds nothing HLH1 does not, and the
    * retained-entry count (`MiningStats.peakEntries`) does not include it.
    */
  def level1(hlh1: HLH1): HLHk = {
    val view = new HLHk(1)
    for (e <- hlh1.candidates) {
      val p = PatternKey.single(e)
      val sup = hlh1.support(e)
      view.ehk.update(Vector(e), GroupEntry(sup, Vector(p)))
      view.phk.update(p, sup)
      for ((g, is) <- hlh1.gh(e)) view.ghk.update((p, g), is.map(Vector(_)))
    }
    view
  }
}
