package repro.baseline

import java.nio.ByteBuffer
import repro.core._

/** APS-growth: the paper's baseline (Sec. VI-A) — PS-growth adapted to
  * seasonal temporal patterns in two phases:
  *
  *   1. PS-growth mines recurring event groups over the granule-as-
  *      transaction database (one transaction per D_SEQ row, items = the
  *      events occurring in it), qualified by total occurrence count
  *      `>= minSeason · minDensity` — the paper's maxSeason bound, sound
  *      and looser than STPM's candidate test, so the final answers
  *      coincide (DESIGN.md §4).
  *   2. Temporal patterns are enumerated from the recurring groups by raw
  *      per-granule instance tuples over HLH_1 (built without pruning) and
  *      the mining kernel's pair code — *without* STPM's pattern-level
  *      candidate pruning, transitivity filtering, or occurrence reuse —
  *      then the exact frequent-seasonal check is applied.
  *
  * The baseline therefore returns the same frequent seasonal patterns as
  * E-STPM while paying tree construction plus unpruned relation
  * enumeration — the cost profile the paper compares against. It runs on
  * the calling thread.
  */
object APSGrowth {

  /** Extra counters reported by the benches. */
  final case class BaselineStats(psGrowth: PSGrowth.Stats, relationChecks: Long,
                                 multisetsTried: Long)

  def mine(db: SeqDB, cfg: STPMConfig): (MiningResult, BaselineStats) = {
    val season = cfg.season
    val minCount = season.minSeason * season.minDensity
    val psStats = new PSGrowth.Stats
    val transactions = db.rows.map(r => (r.pos, r.events))

    // Phase 1 — recurring event groups via PS-growth.
    val recurring = PSGrowth.mine(transactions, season.maxPeriod, minCount,
      cfg.maxK, psStats)
    val bySize: Map[Int, Vector[Vector[Event]]] =
      recurring.map(_.itemset).groupBy(_.size).view.mapValues(_.distinct).toMap

    // Every event's support set and instances; event ids ascend with
    // events, so a sorted multiset maps to sorted ids.
    val hlh1 = HLH1.build(db, season, apriori = false)
    val id = hlh1.candidates.zipWithIndex.toMap

    var relationChecks, multisetsTried = 0L
    val frequent = Vector.newBuilder[FrequentPattern]
    val stats = new MiningStats
    stats.totalEvents = db.allEvents.size

    // Singleton events: exact seasonal check over real support sets.
    val singles = bySize.getOrElse(1, Vector.empty)
    for (items <- singles; e = id(items.head))
      frequent ++= hlh1.frequent(Array(e), Array.emptyByteArray, hlh1.support(e), season)
    stats.candidateEvents = singles.size

    // Phase 2 — k-event patterns from multiset expansions of recurring sets.
    for (k <- 2 to cfg.maxK) {
      val multisets = expandMultisets(bySize, k)
      val pairs = PatternKey.pairOrder(k)
      var patterns = 0
      for (ms <- multisets) {
        multisetsTried += 1
        val group = ms.map(id).toArray
        // The granules where each event has an instance per slot.
        val sup = hlh1.support(group(0)).filter { g =>
          group.forall { e => val at = hlh1.index(e); at(g + 1) - at(g) >= group.count(_ == e) }
        }
        if (sup.length >= minCount) {
          val tuple = new Array[Int](k) // instance indexes into hlh1.granules(g - 1)
          val rels = new Array[Byte](pairs.size)
          val probe = ByteBuffer.wrap(rels) // hashes and compares `rels` as it is now
          val byRels = new java.util.LinkedHashMap[ByteBuffer, PatternBuf]
          for (g <- sup) {
            val inst = hlh1.granules(g - 1)
            // Every tuple from slot s on, a repeated event's instances
            // ascending; a complete one is coded pair by pair and keys its
            // pattern. Nothing is allocated per tuple.
            def fill(s: Int): Unit =
              if (s == k) {
                var p = 0
                while (p < rels.length) {
                  rels(p) = Relations.pairCode(inst, tuple(pairs(p)._1), tuple(pairs(p)._2), cfg.rel).toByte
                  p += 1
                }
                relationChecks += rels.length
                var b = byRels.get(probe)
                if (b == null) { b = new PatternBuf(rels.clone(), keepOcc = false); byRels.put(ByteBuffer.wrap(b.rels), b) }
                b.add(g, tuple, 0, 0, 0)
              } else {
                val e = group(s)
                val at = hlh1.index(e)
                var x = at(g)
                while (x < at(g + 1)) {
                  tuple(s) = hlh1.groups(e).patterns(0).occ(x)
                  if (s == 0 || group(s - 1) != e || tuple(s - 1) < tuple(s)) fill(s + 1)
                  x += 1
                }
              }
            fill(0)
          }
          patterns += byRels.size
          byRels.values.forEach(b => frequent ++= hlh1.frequent(group, b.rels, b.result().support, season))
        }
      }
      stats.candidateGroups.update(k, multisets.size)
      stats.candidatePatterns.update(k, patterns)
    }
    stats.relationChecks = relationChecks
    stats.peakEntries = psStats.treeNodesBuilt
    (MiningResult(frequent.result(), stats),
      BaselineStats(psStats, relationChecks, multisetsTried))
  }

  /** All size-k multisets whose underlying set is a recurring itemset:
    * distribute k occurrences over the |S| events of each recurring set S
    * (every event at least once), canonical sorted-vector form.
    */
  private[baseline] def expandMultisets(bySize: Map[Int, Vector[Vector[Event]]],
                                        k: Int): Vector[Vector[Event]] = {
    val out = Vector.newBuilder[Vector[Event]]
    for (s <- 1 to k; set <- bySize.getOrElse(s, Vector.empty)) {
      for (comp <- compositions(k, s))
        out += set.zip(comp).flatMap { case (e, m) => Vector.fill(m)(e) }
    }
    out.result().distinct
  }

  /** Compositions of n into exactly parts positive integers. */
  private[baseline] def compositions(n: Int, parts: Int): Vector[Vector[Int]] =
    if (parts == 1) { if (n >= 1) Vector(Vector(n)) else Vector.empty }
    else (1 to n - parts + 1).toVector
      .flatMap(h => compositions(n - h, parts - 1).map(h +: _))
}
