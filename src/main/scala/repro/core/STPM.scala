package repro.core

import scala.annotation.tailrec
import scala.collection.immutable.ArraySeq
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
  // The kernel packs a pattern's k-1 new relations base 6 into 32 bits.
  require(maxK >= 1 && maxK <= 13, "maxK must be in 1..13")
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

/** One group-mining task: extend the previous level's group number `parent`
  * by event id `ek`; `sup` is the new group's support set.
  */
final class GroupTask(val parent: Int, val ek: Int, val sup: Array[Int]) extends Serializable

/** A candidate pattern of a mined group. `rels` holds each slot pair's
  * (relation, flag) code in [[PatternKey.pairOrder]] ([[PatternKey.decode]]).
  * `support` is its support set; its occurrences at `support(j)` are the
  * tuples `occOff(j) until occOff(j + 1)`, tuple t being the k instance
  * indexes `occ(t * k until t * k + k)` into [[HLH1.granules]].
  */
final class MinedPattern(val rels: Array[Byte], val support: Array[Int],
                         val occOff: Array[Int], val occ: Array[Int]) extends Serializable

/** Result of mining one k-event group (sorted event ids): its support set,
  * its candidate patterns, and the relation checks and occurrences spent on
  * it; stored as returned in [[HLHk]]. Level-2 results come back from Spark.
  */
final class GroupMined(val group: Array[Int], val sup: Array[Int], val patterns: Array[MinedPattern],
                       val checks: Long, val occurrences: Long) extends Serializable

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
    val hlh1 = HLH1.build(db, cfg.season, cfg.apriori, e => seriesFilter.forall(_(e.series)))
    // Keys, events and instances are built only for frequent patterns.
    def emit(level: HLHk): Unit =
      for (gm <- level.groups; p <- gm.patterns;
           seasons <- Seasonality.frequentSeasons(ArraySeq.unsafeWrapArray(p.support), cfg.season))
        frequent += FrequentPattern(hlh1.key(gm.group, p.rels), p.support.toVector, seasons)
    stats.candidateEvents = hlh1.candidates.size
    emit(hlh1)
    stats.noteEntries(hlh1.entryCount)

    // Step 2.2 — frequent seasonal k-event patterns (Alg. 1 lines 10–23):
    // each level extends the one before it, level 2 extends HLH_1.
    @tailrec def levels(prev: HLHk): Unit = if (prev.k < cfg.maxK) {
      val k = prev.k + 1
      // The pair filter applies at level 2 only — A-STPM mines k >= 3
      // exactly (Alg. 2 lines 9–10). The executor, too, runs level 2 only.
      val hlhk = mineLevel(hlh1, prev, cfg, stats,
        pairFilter = if (k == 2) pairFilter else None,
        exec = if (k == 2) level2Exec else None)
      stats.candidateGroups.update(k, hlhk.groups.size)
      stats.candidatePatterns.update(k, hlhk.patterns.size)
      val prevEntries = if (prev.k > 1) prev.entryCount else 0L // HLH_1 is counted once
      stats.noteEntries(hlh1.entryCount + prevEntries + hlhk.entryCount)
      emit(hlhk)
      if (hlhk.groups.nonEmpty) levels(hlhk)
    }
    levels(hlh1)
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
    val iterative = k >= 3 && cfg.transitivity
    val n = hlh1.candidates.size
    // Transitivity pruning (Lemma 4): from level 3 on, only events of
    // *candidate* (k-1)-patterns extend a group — tested here, as under
    // apriori = false `prev` holds every pattern (Trans-only ablation).
    val inCandidate = Array.fill(n)(!iterative)
    for (gm <- prev.groups if iterative && gm.patterns.exists(p => candidate(p.support.length, cfg));
         e <- gm.group) inCandidate(e) = true
    // The iterative check (Sec. 4.2.2) as a table: bit c of `e0 * n + e1`
    // (e0 <= e1) admits (relation, flag) code c for events (e0, e1). At
    // level 3, the codes of candidate 2-patterns; deeper, the group-level
    // test (cheaper, still sound): every code iff the pair's support passes.
    val pairRels = new Array[Int](if (iterative) n * n else 0)
    if (iterative && k == 3)
      for (gm <- prev.groups; p <- gm.patterns if candidate(p.support.length, cfg))
        pairRels(gm.group(0) * n + gm.group(1)) |= 1 << p.rels(0)
    else if (iterative)
      for (e0 <- 0 until n; e1 <- e0 until n
           if candidate(intersectSorted(hlh1.support(e0), hlh1.support(e1)).length, cfg))
        pairRels(e0 * n + e1) = -1
    def eachTask(f: GroupTask => Unit): Unit = for {
      (gm, parent) <- prev.groups.iterator.zipWithIndex
      last = gm.group.last
      // Canonical extension only; ek == last repeats an event (at level 2,
      // the self-pairs).
      ek <- last until n if inCandidate(ek)
      if pairFilter.forall(pf => pf(hlh1.candidates(last).series, hlh1.candidates(ek).series))
    } {
      val sup = intersectSorted(gm.sup, hlh1.support(ek))
      if (admitted(sup.length, cfg)) f(new GroupTask(parent, ek, sup))
    }

    val groups = Vector.newBuilder[GroupMined]
    def store(gm: GroupMined): Unit = {
      stats.relationChecks += gm.checks
      stats.occurrences += gm.occurrences
      if (gm.patterns.nonEmpty) groups += gm
    }
    exec match {
      case Some(run) =>
        val tasks = Vector.newBuilder[GroupTask]
        eachTask(tasks += _)
        run(tasks.result()).foreach(store)
      case None => eachTask(t => store(mineGroup(hlh1, prev, t, cfg, pairRels)))
    }
    new HLHk(k, groups.result())
  }

  /** Candidate test of `n` supporting granules: maxSeason >= minSeason
    * (Sec. IV-B) under Apriori-like pruning, otherwise non-emptiness.
    */
  private def admitted(n: Int, cfg: STPMConfig): Boolean = if (cfg.apriori) candidate(n, cfg) else n > 0

  private def candidate(n: Int, cfg: STPMConfig): Boolean = Seasonality.isCandidate(n, cfg.season)

  /** The group-mining kernel (Sec. IV-D 4.2): at each granule of the new
    * group's support, every occurrence of every pattern of the parent group
    * grows by one instance of `task.ek`; its k-1 new (relation, flag) pairs
    * are checked against a non-empty `pairRels` and, packed base 6, key the
    * new pattern with the parent's index. Returns only candidate patterns,
    * and its work as values; pure in its inputs, so it also runs on executors.
    */
  private[repro] def mineGroup(
      hlh1: HLH1,
      prev: HLHk,
      task: GroupTask,
      cfg: STPMConfig,
      pairRels: Array[Int] = Array.emptyIntArray): GroupMined = {
    val parentGroup = prev.groups(task.parent)
    val parents = parentGroup.patterns
    val ek = task.ek
    val w = parentGroup.group.length // k - 1 slots per parent tuple
    val n = hlh1.candidates.size
    val dupOfLast = ek == parentGroup.group.last
    val eks = hlh1.groups(ek).patterns(0)
    // Granules ascend: each support set is searched from its previous hit.
    var ekAt = 0
    val parentAt = new Array[Int](parents.length)
    val index = mutable.LongMap.empty[PatternBuf]
    val bufs = mutable.ArrayBuffer.empty[PatternBuf]
    var checks, occurrences = 0L
    var gi = 0
    while (gi < task.sup.length) {
      val g = task.sup(gi)
      val inst = hlh1.granules(g - 1)
      ekAt = indexOfSorted(eks.support, g, ekAt)
      var pi = 0
      while (pi < parents.length) {
        val p = parents(pi)
        val at = indexOfSorted(p.support, g, parentAt(pi))
        if (at >= 0) {
          parentAt(pi) = at + 1
          var o = p.occOff(at) * w
          while (o < p.occOff(at + 1) * w) {
            var x = eks.occOff(ekAt)
            while (x < eks.occOff(ekAt + 1)) {
              val ei = eks.occ(x)
              // A repeated event's instances ascend, so each combination
              // appears once (and ei is not in the parent tuple).
              if (!dupOfLast || p.occ(o + w - 1) < ei) {
                var code, s = 0
                while (s >= 0 && s < w) {
                  checks += 1
                  val a = p.occ(o + s)
                  val c = pairCode(inst, a, ei, cfg.rel)
                  code = code * 6 + c
                  s = if (pairRels.isEmpty || (pairRels(inst(3 * a) * n + ek) >>> c & 1) != 0) s + 1 else -1
                }
                if (s == w) {
                  val key = pi.toLong << 32 | code & 0xffffffffL
                  var b = index.getOrNull(key)
                  if (b == null) { b = new PatternBuf(extendRels(p.rels, code, w)); index(key) = b; bufs += b }
                  b.add(g, p.occ, o, w, ei)
                  occurrences += 1
                }
              }
              x += 1
            }
            o += w
          }
        }
        pi += 1
      }
      gi += 1
    }
    val candidates = bufs.iterator.filter(b => admitted(b.supportSize, cfg)).map(_.result()).toArray
    new GroupMined(parentGroup.group :+ ek, task.sup, candidates, checks, occurrences)
  }

  /** The [[PatternKey.decode]] code of slot pair (a, b), instances of `inst`
    * with a's event id <= b's: the relation from the one first in
    * [[Instance.orientationOrdering]]; flagged if a is it or both are one event.
    */
  private def pairCode(inst: Array[Int], a: Int, b: Int, cfg: RelCfg): Int = {
    val aS = inst(3 * a + 1); val aE = inst(3 * a + 2)
    val bS = inst(3 * b + 1); val bE = inst(3 * b + 2)
    val aFirst = aS < bS || aS == bS && aE >= bE
    val rel = if (aFirst) Relations.relate(aS, aE, bS, bE, cfg) else Relations.relate(bS, bE, aS, aE, cfg)
    2 * rel.ordinal + (if (aFirst || inst(3 * a) == inst(3 * b)) 1 else 0)
  }

  /** The parent's relation codes, then the `w` packed base 6 in `code`. */
  private def extendRels(parent: Array[Byte], code: Int, w: Int): Array[Byte] = {
    val rels = java.util.Arrays.copyOf(parent, parent.length + w)
    var c = code & 0xffffffffL
    for (i <- rels.indices.reverse.take(w)) { rels(i) = (c % 6).toByte; c /= 6 }
    rels
  }

  /** Merge-intersection of two sorted granule arrays. */
  private[repro] def intersectSorted(a: Array[Int], b: Array[Int]): Array[Int] = {
    val out = new mutable.ArrayBuilder.ofInt
    var i, j = 0
    while (i < a.length && j < b.length) {
      if (a(i) == b(j)) { out.addOne(a(i)); i += 1; j += 1 }
      else if (a(i) < b(j)) i += 1
      else j += 1
    }
    out.result()
  }

  /** The index of `x` in the sorted array `v`, or -1, searched from index
    * `from` on by galloping, then bisecting: O(log distance).
    */
  private[repro] def indexOfSorted(v: Array[Int], x: Int, from: Int = 0): Int = {
    var lo, hi = from
    var step = 1
    while (hi < v.length && v(hi) < x) { lo = hi + 1; hi += step; step <<= 1 }
    math.max(-1, java.util.Arrays.binarySearch(v, lo, math.min(hi + 1, v.length), x))
  }
}
