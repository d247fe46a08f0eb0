package repro.core

import scala.annotation.tailrec
import scala.collection.mutable
import repro.core.Relations.RelCfg

/** Full E-STPM configuration (Algorithm 1 + Table III knobs).
  *
  * The pruning flags realize the ablation of Sec. VI-C3: `apriori` toggles
  * the maxSeason candidate filter (Lemmas 1–2), `transitivity` toggles the
  * FilteredF1 / iterative 2-pattern-existence check (Lemmas 3–4). All four
  * combinations return the same frequent patterns (both prunings are sound);
  * they differ in work done.
  */
final case class STPMConfig(
    season: SeasonCfg,
    rel: RelCfg = RelCfg(),
    maxK: Int = 3,
    apriori: Boolean = true,
    transitivity: Boolean = true) {
  require(maxK >= 1, "maxK must be >= 1")
}

/** A mined frequent seasonal temporal pattern with its evidence. */
final case class FrequentPattern(
    key: PatternKey,
    support: Vector[Int],
    seasons: Vector[NearSupport]) {
  def k: Int = key.k
  def seasonCount(cfg: SeasonCfg): Int = Seasonality.seasonCount(seasons, cfg)
}

/** Work counters — runtime- and machine-independent effort measures used by
  * the benches alongside wall-clock time.
  */
final class MiningStats {
  var totalEvents: Int = 0
  var candidateEvents: Int = 0
  val candidateGroups: mutable.LinkedHashMap[Int, Int] = mutable.LinkedHashMap.empty
  val candidatePatterns: mutable.LinkedHashMap[Int, Int] = mutable.LinkedHashMap.empty
  var relationChecks: Long = 0L
  var occurrences: Long = 0L
  var peakEntries: Long = 0L

  def noteEntries(n: Long): Unit = if (n > peakEntries) peakEntries = n
  override def toString: String =
    s"events=$candidateEvents/$totalEvents groups=${candidateGroups.toMap} " +
      s"patterns=${candidatePatterns.toMap} relChecks=$relationChecks " +
      s"occurrences=$occurrences peakEntries=$peakEntries"
}

final case class MiningResult(frequent: Vector[FrequentPattern], stats: MiningStats) {
  def frequentOfSize(k: Int): Vector[FrequentPattern] = frequent.filter(_.k == k)
  def keys: Set[PatternKey] = frequent.iterator.map(_.key).toSet
}

/** One group-mining task: extend the (k-1)-event `group` of the previous
  * level by event `ek`; `sup` is the k-event group's support set.
  */
final case class GroupTask(group: Vector[Event], ek: Event, sup: Vector[Int])

/** A candidate pattern of a mined group: its support set and, aligned with
  * it, the occurrence instance tuples at each supporting granule.
  */
final case class MinedPattern(
    key: PatternKey,
    support: Vector[Int],
    occs: Vector[Vector[Vector[Instance]]])

/** Result of mining one k-event group: its support set, its candidate
  * patterns, and the relation checks and occurrences spent on it. It is
  * also the group's value in [[HLHk]], stored as returned; the next level
  * reads its patterns' support sets and occurrences.
  * Serializable — level-2 instances of this travel back from Spark
  * executors (see [[repro.core.SparkSTPM]]).
  */
final case class GroupMined(
    group: Vector[Event],
    sup: Vector[Int],
    patterns: Vector[MinedPattern],
    checks: Long,
    occurrences: Long)

/** The exact Seasonal Temporal Pattern Mining algorithm (Algorithm 1). */
object STPM {

  /** Pluggable execution of the level-2 workload: given the admitted
    * level-2 tasks, return each task's `mineGroup` result *in input order*.
    * Without one the tasks run inline; the Spark variant fans the list out
    * with `mapPartitions`.
    */
  private[repro] type Level2Exec = Vector[GroupTask] => Vector[GroupMined]

  /** Mine all frequent seasonal temporal patterns of length <= cfg.maxK. */
  def mine(db: SeqDB, cfg: STPMConfig): MiningResult =
    mineFiltered(db, cfg, seriesFilter = None, pairFilter = None)

  /** Mining with optional restrictions, used by A-STPM (Algorithm 2):
    * `seriesFilter` drops whole time series before single-event mining;
    * `pairFilter` restricts 2-event groups to admitted series pairs.
    * Levels k >= 3 always proceed exactly on whatever level 2 produced.
    */
  private[repro] def mineFiltered(
      db: SeqDB,
      cfg: STPMConfig,
      seriesFilter: Option[String => Boolean],
      pairFilter: Option[(String, String) => Boolean],
      level2Exec: Option[Level2Exec] = None): MiningResult = {
    val stats = new MiningStats
    val frequent = Vector.newBuilder[FrequentPattern]

    // Step 2.1 — frequent seasonal single events (Alg. 1 lines 1–9).
    stats.totalEvents = db.allEvents.size
    val hlh1 = HLH1.build(db, cfg.season, cfg.apriori)
    for (f <- seriesFilter; e <- hlh1.eh.keysIterator.toVector if !f(e.series)) {
      hlh1.eh.remove(e); hlh1.gh.remove(e)
    }
    stats.candidateEvents = hlh1.eh.size
    for ((e, sup) <- hlh1.eh; seasons <- Seasonality.frequentSeasons(sup, cfg.season))
      frequent += FrequentPattern(PatternKey.single(e), sup, seasons)
    stats.noteEntries(hlh1.entryCount)

    // Step 2.2 — frequent seasonal k-event patterns (Alg. 1 lines 10–23):
    // each level extends the one before it, level 2 the level-1 view.
    @tailrec def levels(prev: HLHk): Unit = if (prev.k < cfg.maxK) {
      val k = prev.k + 1
      // The pair filter applies at level 2 only — A-STPM mines k >= 3
      // exactly (Alg. 2 lines 9–10). The executor, too, runs level 2 only.
      val hlhk = mineLevel(hlh1, prev, cfg, stats,
        pairFilter = if (k == 2) pairFilter else None,
        exec = if (k == 2) level2Exec else None)
      stats.candidateGroups.update(k, hlhk.groups.size)
      stats.candidatePatterns.update(k, hlhk.patterns.size)
      val prevEntries = if (prev.k > 1) prev.entryCount else 0L // the view holds none
      stats.noteEntries(hlh1.entryCount + prevEntries + hlhk.entryCount)
      for (p <- hlhk.patterns; seasons <- Seasonality.frequentSeasons(p.support, cfg.season))
        frequent += FrequentPattern(p.key, p.support, seasons)
      if (hlhk.groups.nonEmpty) levels(hlhk)
    }
    if (cfg.maxK >= 2) levels(HLHk.level1(hlh1))
    MiningResult(frequent.result(), stats)
  }

  /** Mine HLH level k = prev.k + 1 (Sec. IV-D): candidate k-event groups,
    * each a group of `prev` extended by one candidate event, and their
    * candidate k-event patterns. Each group is stored as soon as it is
    * mined — by `mineGroup`, or by `exec` over the whole task list — and
    * only here are its work counts added to `stats`.
    */
  private[core] def mineLevel(
      hlh1: HLH1,
      prev: HLHk,
      cfg: STPMConfig,
      stats: MiningStats,
      pairFilter: Option[(String, String) => Boolean] = None,
      exec: Option[Level2Exec] = None): HLHk = {
    val k = prev.k + 1
    val f1 = hlh1.candidates
    // Transitivity pruning (Lemma 4): from level 3 on, only events
    // appearing in *candidate* (k-1)-patterns may extend a group. When the
    // Apriori flag is off, `prev` holds unfiltered patterns — apply the
    // maxSeason candidacy test here so the transitivity flag stays
    // meaningful on its own (the paper's Trans-only ablation variant).
    val filteredF1 =
      if (k >= 3 && cfg.transitivity) {
        val pe = prev.patterns
          .filter(p => Seasonality.isCandidate(p.support.size, cfg.season))
          .flatMap(_.key.events).toSet
        f1.filter(pe.contains)
      } else f1
    def eachTask(f: GroupTask => Unit): Unit = for {
      (group, gm) <- prev.groups
      ek <- filteredF1
      // Canonical extension only; ek == group.last repeats an event (at
      // level 2, the self-pairs).
      if Event.ordering.gteq(ek, group.last)
      if pairFilter.forall(pf => pf(group.last.series, ek.series))
    } {
      val sup = intersectSorted(gm.sup, hlh1.support(ek))
      if (admitted(sup.size, cfg)) f(GroupTask(group, ek, sup))
    }

    val hlhk = new HLHk(k)
    def store(gm: GroupMined): Unit = {
      stats.relationChecks += gm.checks
      stats.occurrences += gm.occurrences
      if (gm.patterns.nonEmpty) hlhk.groups.update(gm.group, gm)
    }
    exec match {
      case Some(run) =>
        val tasks = Vector.newBuilder[GroupTask]
        eachTask(tasks += _)
        run(tasks.result()).foreach(store)
      case None => eachTask(t => store(mineGroup(hlh1, prev, t, cfg)))
    }
    hlhk
  }

  /** Candidate test for a k-event group or pattern with `n` supporting
    * granules: maxSeason >= minSeason when Apriori-like pruning is on
    * (Sec. IV-B); otherwise only non-emptiness.
    */
  private def admitted(n: Int, cfg: STPMConfig): Boolean =
    if (cfg.apriori) Seasonality.isCandidate(n, cfg.season) else n > 0

  /** The group-mining kernel (Sec. IV-D 4.2): mine group
    * `task.group :+ task.ek` by extending every candidate (k-1)-pattern of
    * `task.group` with instances of `task.ek`. At each granule of the
    * group's support each stored occurrence grows by one instance, and the
    * new slot-pair relations are appended; from k = 3 on they are
    * iteratively checked against candidate 2-patterns when transitivity
    * pruning is on. At k = 2, `prev` is the level-1 view
    * ([[HLHk.level1]]). Returns only candidate patterns, and its work as
    * values; pure in its inputs, so it also runs on executors.
    */
  private[repro] def mineGroup(
      hlh1: HLH1,
      prev: HLHk,
      task: GroupTask,
      cfg: STPMConfig): GroupMined = {
    val GroupTask(group, ek, sup) = task
    val newGroup = group :+ ek
    val k = newGroup.size
    val iterative = cfg.transitivity && k >= 3
    val dupOfLast = ek == group.last
    val parentPatterns = prev.groups(group).patterns
    val perPattern = mutable.LinkedHashMap.empty[PatternKey,
      (mutable.ArrayBuffer[Int], mutable.ArrayBuffer[mutable.ArrayBuffer[Vector[Instance]]])]
    var checks = 0L
    var occurrences = 0L
    for (g <- sup; p <- parentPatterns) {
      // The parent pattern's occurrences at g, by g's index in its support.
      val at = indexOfSorted(p.support, g)
      if (at >= 0) {
        val eks = hlh1.instancesAt(ek, g)
        for {
          parent <- p.occs(at)
          ei <- eks
          if !parent.contains(ei)
          // For a duplicated trailing event keep instance tuples canonical
          // (ascending) so each unordered combination appears once.
          if !dupOfLast || Instance.ordering.lt(parent.last, ei)
        } {
          var rels = p.key.rels
          var ok = true
          var s = 0
          while (ok && s < parent.size) {
            checks += 1
            val a = parent(s)
            val (first, second, rel) = Relations.orientAndRelate(a, ei, cfg.rel)
            ok = !iterative || pairIsCandidate(k, prev, hlh1, first, second, rel, cfg)
            // Same-event slot pairs canonicalize to flag = true (relations
            // are between events; instance order carries no identity).
            rels = rels :+ ((rel, a.event == ei.event || first == a))
            s += 1
          }
          if (ok) {
            val key = PatternKey(newGroup, rels)
            val (keySup, keyOccs) = perPattern.getOrElseUpdate(key,
              (mutable.ArrayBuffer.empty, mutable.ArrayBuffer.empty))
            if (keySup.isEmpty || keySup.last != g) {
              keySup += g; keyOccs += mutable.ArrayBuffer.empty
            }
            keyOccs.last += (parent :+ ei)
            occurrences += 1
          }
        }
      }
    }
    val candidates = perPattern.iterator.collect {
      case (key, (keySup, keyOccs)) if admitted(keySup.size, cfg) =>
        MinedPattern(key, keySup.toVector, keyOccs.iterator.map(_.toVector).toVector)
    }.toVector
    GroupMined(newGroup, sup, candidates, checks, occurrences)
  }

  /** Iterative check (Sec. 4.2.2): the oriented triple (rel, first, second)
    * must exist as a candidate 2-event pattern. At level 3 the previous
    * level *is* level 2; beyond that we conservatively re-derive the pair's
    * support from HLH1 and test maxSeason — sound for any k.
    */
  private def pairIsCandidate(
      k: Int,
      prev: HLHk,
      hlh1: HLH1,
      first: Instance, second: Instance, rel: Rel,
      cfg: STPMConfig): Boolean = {
    val (e0, e1) = if (Event.ordering.lteq(first.event, second.event))
      (first.event, second.event) else (second.event, first.event)
    if (k == 3) {
      // Orientation flag: which slot held the chronologically first
      // instance; self-pairs are always stored with flag = true. The
      // triple must exist as a *candidate* 2-pattern of group (e0, e1) —
      // under apriori = off the stored level-2 patterns are unfiltered, so
      // candidacy is re-checked on their support.
      val triple = (rel, first.event == second.event || first.event == e0)
      prev.groups.get(Vector(e0, e1)).exists(_.patterns.exists(p =>
        p.key.rels.head == triple && Seasonality.isCandidate(p.support.size, cfg.season)))
    } else {
      // Deeper levels: group-level candidate test (cheaper, still sound).
      val sup = intersectSorted(hlh1.support(e0), hlh1.support(e1))
      Seasonality.isCandidate(sup.size, cfg.season)
    }
  }

  /** Merge-intersection of two sorted granule vectors. */
  private[repro] def intersectSorted(a: Vector[Int], b: Vector[Int]): Vector[Int] = {
    val out = Vector.newBuilder[Int]
    var i = 0; var j = 0
    while (i < a.size && j < b.size) {
      val x = a(i); val y = b(j)
      if (x == y) { out += x; i += 1; j += 1 }
      else if (x < y) i += 1
      else j += 1
    }
    out.result()
  }

  /** Binary search: the index of `x` in the sorted vector `v`, or -1. */
  private[repro] def indexOfSorted(v: Vector[Int], x: Int): Int = {
    var lo = 0; var hi = v.size - 1
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      val m = v(mid)
      if (m == x) return mid
      else if (m < x) lo = mid + 1
      else hi = mid - 1
    }
    -1
  }
}
