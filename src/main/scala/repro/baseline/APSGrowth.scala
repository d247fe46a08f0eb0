package repro.baseline

import scala.collection.mutable
import repro.core._

/** APS-growth: the paper's baseline (Sec. VI-A) — PS-growth adapted to
  * seasonal temporal patterns in two phases:
  *
  *   1. PS-growth mines recurring event groups over the granule-as-
  *      transaction database (one transaction per D_SEQ row, items = the
  *      events occurring in it), qualified by total occurrence count
  *      `>= minSeason · minDensity` — the same sound bound as STPM's
  *      maxSeason test, so the final answers coincide (DESIGN.md §4).
  *   2. Temporal patterns are enumerated from the recurring groups by raw
  *      per-granule instance cross-products — *without* STPM's pattern-level
  *      maxSeason pruning, transitivity filtering, or occurrence reuse —
  *      then the exact frequent-seasonal check is applied.
  *
  * The baseline therefore returns the same frequent seasonal patterns as
  * E-STPM while paying tree construction plus unpruned relation
  * enumeration — the cost profile the paper compares against.
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

    // Instance index (the baseline's replacement for HLH1).
    val supIdx = mutable.HashMap.empty[Event, Vector[Int]]
    val instIdx = mutable.HashMap.empty[(Event, Int), Vector[Instance]]
    for (row <- db.rows; (e, is) <- row.instances.groupBy(_.event)) {
      supIdx.update(e, supIdx.getOrElse(e, Vector.empty) :+ row.pos)
      instIdx.update((e, row.pos), is)
    }

    var relationChecks = 0L
    var multisetsTried = 0L
    val frequent = Vector.newBuilder[FrequentPattern]
    val stats = new MiningStats
    stats.totalEvents = db.allEvents.size

    // Singleton events: exact seasonal check over real support sets.
    for (items <- bySize.getOrElse(1, Vector.empty); e = items.head) {
      val sup = supIdx.getOrElse(e, Vector.empty)
      for (seasons <- Seasonality.frequentSeasons(sup, season))
        frequent += FrequentPattern(PatternKey.single(e), sup, seasons)
    }
    stats.candidateEvents = bySize.getOrElse(1, Vector.empty).size

    // Phase 2 — k-event patterns from multiset expansions of recurring sets.
    for (k <- 2 to cfg.maxK) {
      val multisets = expandMultisets(bySize, k)
      val perPattern = mutable.LinkedHashMap.empty[PatternKey, Vector[Int]]
      for (ms <- multisets) {
        multisetsTried += 1
        val mult = ms.groupBy(identity).view.mapValues(_.size).toMap
        val baseSup = ms.distinct.map(e => supIdx.getOrElse(e, Vector.empty).toArray)
          .reduce(intersectSorted)
        val sup = baseSup.filter(g =>
          mult.forall { case (e, m) => instIdx.getOrElse((e, g), Vector.empty).size >= m })
        if (sup.size >= minCount) {
          for (g <- sup) {
            val perEvent: Vector[Vector[Vector[Instance]]] = ms.distinct.map { e =>
              combinations(instIdx((e, g)), mult(e))
            }
            for (pick <- cross(perEvent)) {
              val tuple = ms.distinct.zip(pick).flatMap { case (_, is) => is }
              relationChecks += tuple.size.toLong * (tuple.size - 1) / 2
              val key = PatternKey.ofOccurrence(ms, tuple, cfg.rel)
              val cur = perPattern.getOrElse(key, Vector.empty)
              if (cur.isEmpty || cur.last != g) perPattern.update(key, cur :+ g)
            }
          }
        }
      }
      stats.candidateGroups.update(k, multisets.size)
      stats.candidatePatterns.update(k, perPattern.size)
      for ((p, sup) <- perPattern; seasons <- Seasonality.frequentSeasons(sup, season))
        frequent += FrequentPattern(p, sup, seasons)
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

  /** Ascending m-combinations of an instance list (canonical slot order). */
  private def combinations(is: Vector[Instance], m: Int): Vector[Vector[Instance]] =
    is.sorted(Instance.ordering).combinations(m).toVector

  /** Cross product of per-event instance selections. */
  private def cross[A](xs: Vector[Vector[A]]): Vector[Vector[A]] =
    xs.foldLeft(Vector(Vector.empty[A])) { (acc, choices) =>
      for (a <- acc; c <- choices) yield a :+ c
    }

  /** Merge-intersection of two sorted granule arrays. */
  private[baseline] def intersectSorted(a: Array[Int], b: Array[Int]): Array[Int] = {
    val out = new mutable.ArrayBuilder.ofInt
    var i, j = 0
    while (i < a.length && j < b.length) {
      if (a(i) == b(j)) { out.addOne(a(i)); i += 1; j += 1 }
      else if (a(i) < b(j)) i += 1
      else j += 1
    }
    out.result()
  }
}
