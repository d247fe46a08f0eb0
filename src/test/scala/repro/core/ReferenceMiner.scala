package repro.core

import scala.collection.mutable
import repro.core.Relations.RelCfg

/** Brute-force seasonal temporal pattern miner for k <= 4, straight from
  * the definitions (Defs. 3.10–3.17) — the oracle the mining kernels are
  * checked against. It shares no mining code with them: no HLH, no
  * pruning, no incremental keys and no `OccurrenceKey.ofOccurrence`.
  *
  * Per granule, every set of k distinct instances is one occurrence of
  * exactly one k-pattern: its slots are the instances sorted by event
  * (instances of a repeated event in canonical instance order), and each
  * slot pair carries the Table III relation from the chronologically first
  * instance to the second. A pattern's support is the set of granules with
  * at least one occurrence; the frequent ones pass the seasonal check.
  */
object ReferenceMiner {

  def mine(db: SeqDB, season: SeasonCfg, rel: RelCfg, maxK: Int): Vector[FrequentPattern] = {
    require(maxK >= 1 && maxK <= 4, "the reference miner covers 1 <= k <= 4")
    val support = mutable.LinkedHashMap.empty[PatternKey, mutable.ArrayBuffer[Int]]
    for (row <- db.rows; k <- 1 to maxK; picked <- row.instances.combinations(k)) {
      // `combinations` keeps the row's canonical order and `sortBy` is
      // stable, so repeated events stay in ascending instance order.
      val slots = picked.sortBy(_.event)
      val rels = for (j <- 1 until k; i <- 0 until j) yield relation(slots(i), slots(j), rel)
      val sup = support.getOrElseUpdate(PatternKey(slots.map(_.event), rels.toVector),
        mutable.ArrayBuffer.empty)
      if (sup.isEmpty || sup.last != row.pos) sup += row.pos
    }
    support.iterator.flatMap { case (key, sup) =>
      // The verdict straight from Def. 3.17, not the miners' one-pass check.
      val seasons = Seasonality.seasonsOf(sup.toVector, season)
      if (Seasonality.seasonCount(seasons, season) >= season.minSeason)
        Some(FrequentPattern(key, sup.toVector, seasons))
      else None
    }.toVector
  }

  /** Table III for slot pair (x, y): orient the two instances (earlier
    * start first; on a start tie the longer one; then the event), relate
    * the first to the second with the ε buffer and minimal overlap d_o,
    * and flag whether slot x holds the first instance. A pair of the same
    * event always carries flag = true.
    */
  private def relation(x: Instance, y: Instance, cfg: RelCfg): (Rel, Boolean) = {
    val xFirst = x.start < y.start || x.start == y.start &&
      (x.end > y.end || x.end == y.end && Event.ordering.lteq(x.event, y.event))
    val (a, b) = if (xFirst) (x, y) else (y, x)
    val r =
      if (b.end <= a.end + cfg.epsilon) Rel.Contains
      else if (a.end - b.start + 1 >= math.max(1, cfg.minOverlap - cfg.epsilon)) Rel.Overlaps
      else Rel.Follows
    (r, x.event == y.event || xFirst)
  }
}
