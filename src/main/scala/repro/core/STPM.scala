package repro.core

import java.util.concurrent.{Callable, ExecutionException, LinkedBlockingQueue, ThreadPoolExecutor, TimeUnit}
import scala.annotation.tailrec
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import repro.core.Relations.RelCfg

/** Full E-STPM configuration (Algorithm 1 + Table III knobs).
  *
  * The pruning flags realize the ablation of Sec. VI-C3: `apriori` toggles
  * the candidate filter of every level ([[Seasonality.isCandidate]], Lemmas
  * 1–2), `transitivity` toggles the FilteredF1 / iterative
  * 2-pattern-existence check (Lemmas 3–4). All four
  * combinations return the same frequent patterns (both prunings are sound);
  * they differ in work done, and in memory: without `apriori` (NoPrune and
  * the Trans-only ablation) every group and pattern with a non-empty support
  * is kept, so HLH_k grows with the occurrences. On the RE preset at
  * minSeason 4, maxK 5 Trans-only peaks at 110.7 M entries (12.2 M with both
  * prunings); on INF it runs out of a 3 GB heap. No memory budget bounds
  * this yet.
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
  /** Per level, the tasks the pair-support test rejected ([[STPM.mineGroup]]). */
  val pairRejected: mutable.LinkedHashMap[Int, Int] = mutable.LinkedHashMap.empty
  var relationChecks: Long = 0L
  var occurrences: Long = 0L
  var peakEntries: Long = 0L

  def noteEntries(n: Long): Unit = if (n > peakEntries) peakEntries = n
  override def toString: String =
    s"events=$candidateEvents/$totalEvents groups=${candidateGroups.toMap} " +
      s"patterns=${candidatePatterns.toMap} pairRejected=${pairRejected.toMap} relChecks=$relationChecks " +
      s"occurrences=$occurrences peakEntries=$peakEntries"
}

final case class MiningResult(frequent: Vector[FrequentPattern], stats: MiningStats) {
  def keys: Set[PatternKey] = frequent.iterator.map(_.key).toSet
}

/** One group-mining task: extend group number `parent` of the previous
  * level by event id `ek`.
  */
final class GroupTask(val parent: Int, val ek: Int) extends Serializable

/** What every task of one level reads: HLH_1, the previous level's groups,
  * the event-pair table `pairRels` with its pair supports `pairSup`
  * ([[STPM.mineLevel]]) and the config.
  */
final class Level(val hlh1: HLH1, val prev: IndexedSeq[GroupMined], val pairRels: Array[Int],
                  val pairSup: Array[Long], val cfg: STPMConfig) extends Serializable {
  def mine(t: GroupTask): Option[GroupMined] = STPM.mineGroup(hlh1, prev(t.parent), t.ek, pairRels, pairSup, cfg)
}

/** A candidate pattern of a mined group. `rels` holds each slot pair's
  * (relation, flag) code in [[PatternKey.pairOrder]] ([[PatternKey.decode]]).
  * `support` is its support set; its occurrences at `support(j)` are the
  * tuples `occOff(j) until occOff(j + 1)`, tuple t being the k instance
  * indexes `occ(t * k until t * k + k)` into [[HLH1.granules]]. At the
  * last level (k = maxK) it holds no tuples ([[PatternBuf]]).
  */
final class MinedPattern(val rels: Array[Byte], val support: Array[Int],
                         val occOff: Array[Int], val occ: Array[Int]) extends Serializable

/** Result of mining one k-event group (sorted event ids): its support set,
  * its candidate patterns, and the relation checks and occurrences spent on
  * it; stored as returned in [[HLHk]], wherever it was mined.
  */
final class GroupMined(val group: Array[Int], val sup: Array[Int], val patterns: Array[MinedPattern],
                       val checks: Long, val occurrences: Long) extends Serializable

/** The exact Seasonal Temporal Pattern Mining algorithm (Algorithm 1). */
object STPM {

  /** Where a level's tasks run (DESIGN.md §5): given the level and its
    * tasks, each admitted task's [[Level.mine]] result, *in task order*.
    */
  private[repro] type Exec = (Level, Vector[GroupTask]) => Vector[GroupMined]

  private[repro] val inline: Exec = (level, tasks) => tasks.flatMap(level.mine)

  /** The local executor: contiguous chunks of the tasks on a fixed pool of
    * one daemon thread per available processor (so `taskset` sets its
    * width), made once per JVM. The caller only waits, and a worker's
    * exception reaches it unwrapped.
    */
  private[repro] val pooled: Exec = {
    val threads = Runtime.getRuntime.availableProcessors
    lazy val pool = new ThreadPoolExecutor(threads, threads, 0L, TimeUnit.SECONDS, new LinkedBlockingQueue[Runnable],
      (r: Runnable) => { val t = new Thread(r, "stpm-worker"); t.setDaemon(true); t })
    (level, tasks) =>
      if (tasks.isEmpty) Vector.empty
      else {
        // Many more chunks than threads: group costs vary by orders of magnitude.
        val chunks = tasks.grouped((tasks.size + 16 * threads - 1) / (16 * threads))
          .map(c => (() => c.flatMap(level.mine)): Callable[Vector[GroupMined]]).toVector
        try pool.invokeAll(chunks.asJava).asScala.toVector.flatMap(_.get())
        catch { case e: ExecutionException => throw e.getCause }
      }
  }

  /** Mine all frequent seasonal temporal patterns of length <= cfg.maxK. */
  def mine(db: SeqDB, cfg: STPMConfig): MiningResult =
    mineFiltered(db, cfg, seriesFilter = None, pairFilter = None)

  /** Mining with optional restrictions, used by A-STPM (Algorithm 2):
    * `seriesFilter` drops whole time series before single-event mining;
    * `pairFilter` admits series pairs, and at every level k >= 2 a group
    * holds only events of pairwise admitted series. It is decided once per
    * pair of candidate events, into a mask, before level 2.
    */
  private[repro] def mineFiltered(
      db: SeqDB,
      cfg: STPMConfig,
      seriesFilter: Option[String => Boolean],
      pairFilter: Option[(String, String) => Boolean],
      exec: Exec = pooled): MiningResult = {
    val stats = new MiningStats
    val frequent = Vector.newBuilder[FrequentPattern]

    // Step 2.1 — frequent seasonal single events (Alg. 1 lines 1–9).
    val hlh1 = HLH1.build(db, cfg.season, cfg.apriori, e => seriesFilter.forall(_(e.series)))
    stats.totalEvents = db.allEvents.size
    // A while loop: a closure per group would allocate until the JIT
    // removes it, and allocation per op would drift from op to op.
    def emit(level: HLHk): Unit =
      for (gm <- level.groups) {
        var i = 0
        while (i < gm.patterns.length) {
          val p = gm.patterns(i)
          frequent ++= hlh1.frequent(gm.group, p.rels, p.support, cfg.season)
          i += 1
        }
      }
    stats.candidateEvents = hlh1.candidates.size
    emit(hlh1)
    stats.noteEntries(hlh1.entryCount)
    val pairOk = pairFilter.fold(Array.emptyBooleanArray) { pf =>
      val series = hlh1.candidates.map(_.series)
      Array.tabulate(series.size * series.size)(i => pf(series(i / series.size), series(i % series.size)))
    }

    // Step 2.2 — frequent seasonal k-event patterns (Alg. 1 lines 10–23):
    // each level extends the one before it, level 2 extends HLH_1.
    @tailrec def levels(prev: HLHk): Unit = if (prev.k < cfg.maxK) {
      val k = prev.k + 1
      val hlhk = mineLevel(hlh1, prev, cfg, stats, pairOk, exec)
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
    * candidate k-event patterns. Here only the (group, event) tasks are
    * listed; `exec` mines them against the level's read-only [[Level]],
    * and their work counts are added to `stats` here, in task order. A
    * non-empty `pairOk` (A-STPM's pair filter) admits events (e0, e1) at
    * `e0 * n + e1`: every event of the group must pair with the new one.
    */
  private[core] def mineLevel(
      hlh1: HLH1,
      prev: HLHk,
      cfg: STPMConfig,
      stats: MiningStats,
      pairOk: Array[Boolean] = Array.emptyBooleanArray,
      exec: Exec = pooled): HLHk = {
    val k = prev.k + 1
    val iterative = k >= 3 && cfg.transitivity
    val n = hlh1.candidates.size
    // Transitivity pruning (Lemma 4): from level 3 on, only events of
    // *candidate* (k-1)-patterns extend a group — tested here, as under
    // apriori = false `prev` holds every pattern (Trans-only ablation).
    val inCandidate = Array.fill(n)(!iterative)
    if (iterative) foreachCandidate(prev, cfg.season) { (group, _) =>
      var j = 0
      while (j < group.length) { inCandidate(group(j)) = true; j += 1 }
    }
    // The iterative check (Sec. 4.2.2) as one table, built at level 3 and
    // carried by every later level: bit c of `e0 * n + e1` (e0 <= e1) admits
    // (relation, flag) code c for events (e0, e1), the codes of HLH_2's
    // candidate 2-patterns. Every 2-subpattern of a candidate k-pattern is
    // one of them (Lemmas 3–4), so the table is sound at every k >= 3.
    // Bits 6 and up of a pair with a code number its row in `pairSup`: the
    // union of those patterns' support sets, as a bitset of `words` longs
    // over granules 0..|D_SEQ| ([[mineGroup]]'s pair-support test).
    val words = bitsetWords(hlh1)
    val (pairRels, pairSup) =
      if (!iterative) (Array.emptyIntArray, Array.emptyLongArray)
      else if (k > 3) (prev.pairRels, prev.pairSup)
      else {
        val table = new Array[Int](n * n)
        // At most one row per HLH_2 group, each group being one pair.
        val groups = prev.groups.size
        require(groups < (1 << 26) && groups.toLong * words <= Int.MaxValue, "too many event pairs for the pair table")
        val sup = new Array[Long](groups * words)
        var rows = 0
        foreachCandidate(prev, cfg.season) { (group, p) =>
          val i = group(0) * n + group(1)
          if (table(i) == 0) { table(i) = rows << 6; rows += 1 }
          table(i) |= 1 << p.rels(0)
          val row = (table(i) >>> 6) * words
          var j = 0
          while (j < p.support.length) {
            val g = p.support(j)
            sup(row + (g >>> 6)) |= 1L << g
            j += 1
          }
        }
        (table, if (rows == groups) sup else java.util.Arrays.copyOf(sup, rows * words))
      }
    // Canonical extension only; ek == last repeats an event (at level 2,
    // the self-pairs).
    val tasks = for {
      (gm, parent) <- prev.groups.iterator.zipWithIndex
      ek <- gm.group.last until n
      if inCandidate(ek) && (pairOk.isEmpty || gm.group.forall(e => pairOk(e * n + ek)))
    } yield new GroupTask(parent, ek)

    val listed = tasks.toVector
    val mined = exec(new Level(hlh1, prev.groups, pairRels, pairSup, cfg), listed)
    // With pair supports, the kernel rejects a task only by their test.
    if (pairSup.nonEmpty) stats.pairRejected.update(k, listed.size - mined.size)
    val groups = Vector.newBuilder[GroupMined]
    for (gm <- mined) {
      stats.relationChecks += gm.checks
      stats.occurrences += gm.occurrences
      if (gm.patterns.nonEmpty) groups += gm
    }
    new HLHk(k, groups.result(), pairRels, pairSup)
  }

  /** `f(group, pattern)` for each candidate pattern of `level`, in order
    * (while loops, as in `mineFiltered`'s `emit`).
    */
  private def foreachCandidate(level: HLHk, cfg: SeasonCfg)(f: (Array[Int], MinedPattern) => Unit): Unit =
    for (gm <- level.groups) {
      var i = 0
      while (i < gm.patterns.length) {
        val p = gm.patterns(i)
        if (Seasonality.isCandidate(p.support, p.support.length, cfg)) f(gm.group, p)
        i += 1
      }
    }

  /** Admits a group or pattern: a candidate under Apriori-like pruning,
    * otherwise any non-empty support set.
    */
  private def admitted(sup: Array[Int], n: Int, cfg: STPMConfig): Boolean =
    if (cfg.apriori) Seasonality.isCandidate(sup, n, cfg.season) else n > 0

  /** The group-mining kernel (Sec. IV-D 4.2): extend `parentGroup` by
    * event id `ek`, or None if the new group's support is not admitted.
    * With pair supports, the pair-support test comes first: S is the AND
    * of the `pairSup` rows of the k-1 pairs (e, ek), e in the parent group
    * (a pair with no row gives None), and the task is rejected unless S is
    * admitted. Every occurrence that passes the code test lies in S
    * (Lemmas 3–4), and S lies in the events' support intersection, so the
    * group test then holds. Each parent pattern walks the granules of its
    * own support (those in S) and finds `ek`'s instances there in O(1)
    * through HLH_1's granule index; every occurrence there grows by one
    * instance of `ek`. Its k-1 new (relation, flag) pairs are checked
    * against a non-empty `pairRels` and, packed base 6, key the new pattern
    * with the parent pattern's index. Returns only admitted patterns, in
    * the order of their first granule (then parent), and its work as
    * values; pure in its inputs, so it runs on any thread or executor. At
    * the last level (k = maxK), whose occurrences nothing reads, the
    * patterns keep their support sets only.
    */
  private[repro] def mineGroup(hlh1: HLH1, parentGroup: GroupMined, ek: Int, pairRels: Array[Int],
                               pairSup: Array[Long], cfg: STPMConfig): Option[GroupMined] = {
    val w = parentGroup.group.length // k - 1 slots per parent tuple
    val n = hlh1.candidates.size
    // Slot s of a parent tuple is an instance of event group(s): the codes
    // admitted for it with ek, and the pair's row, read once per task.
    val masks = new Array[Int](w)
    var m = 0
    while (m < w) { masks(m) = if (pairRels.isEmpty) -1 else pairRels(parentGroup.group(m) * n + ek); m += 1 }
    val inS = if (pairSup.isEmpty) null else pairSupport(masks, pairSup, bitsetWords(hlh1), cfg)
    if (pairSup.nonEmpty && inS == null) return None
    val sup = hlh1.restrict(parentGroup.sup, ek)
    if (!admitted(sup, sup.length, cfg)) return None
    val parents = parentGroup.patterns
    val dupOfLast = ek == parentGroup.group.last
    val keepOcc = w + 1 < cfg.maxK
    val at = hlh1.index(ek)
    val ekOcc = hlh1.groups(ek).patterns(0).occ
    val index = mutable.LongMap.empty[PatternBuf]
    val bufs = mutable.ArrayBuffer.empty[PatternBuf]
    var checks, occurrences = 0L
    var pi = 0
    while (pi < parents.length) {
      val p = parents(pi)
      var j = 0
      while (j < p.support.length) {
        val g = p.support(j)
        if ((inS == null || (inS(g >>> 6) >>> g & 1L) != 0) && at(g) < at(g + 1)) {
          val inst = hlh1.granules(g - 1)
          var o = p.occOff(j) * w
          while (o < p.occOff(j + 1) * w) {
            var x = at(g)
            while (x < at(g + 1)) {
              val ei = ekOcc(x)
              // A repeated event's instances ascend, so each combination
              // appears once (and ei is not in the parent tuple).
              if (!dupOfLast || p.occ(o + w - 1) < ei) {
                var code, s = 0
                while (s >= 0 && s < w) {
                  checks += 1
                  val c = Relations.pairCode(inst, p.occ(o + s), ei, cfg.rel)
                  code = code * 6 + c
                  s = if ((masks(s) >>> c & 1) != 0) s + 1 else -1
                }
                if (s == w) {
                  val key = pi.toLong << 32 | code & 0xffffffffL
                  var b = index.getOrNull(key)
                  if (b == null) { b = new PatternBuf(extendRels(p.rels, code, w), keepOcc); index(key) = b; bufs += b }
                  b.add(g, p.occ, o, w, ei)
                  occurrences += 1
                }
              }
              x += 1
            }
            o += w
          }
        }
        j += 1
      }
      pi += 1
    }
    // `bufs` is in parent order; a stable sort by first granule gives the
    // order of a walk granule by granule.
    val candidates = bufs.iterator.filter(b => admitted(b.granules, b.supportSize, cfg)).map(_.result()).toArray
      .sortBy(_.support(0))
    Some(new GroupMined(parentGroup.group :+ ek, sup, candidates, checks, occurrences))
  }

  /** A worker thread's buffers for [[pairSupport]], reused by its tasks. */
  private final class PairScratch { var set = Array.emptyLongArray; var granules = Array.emptyIntArray }
  private val pairScratch = ThreadLocal.withInitial[PairScratch](() => new PairScratch)

  /** Longs in a bitset over granules 0..|D_SEQ|. */
  private def bitsetWords(hlh1: HLH1): Int = (hlh1.granules.length + 64) >>> 6

  /** The pair-support set S of a task whose k-1 event pairs with the new
    * event have the `pairRels` entries `masks`: the AND of their rows of
    * `words` longs (the calling thread's buffer, valid until its next
    * call); null if a pair has no row or S is not admitted.
    */
  private def pairSupport(masks: Array[Int], pairSup: Array[Long], words: Int, cfg: STPMConfig): Array[Long] = {
    val buf = pairScratch.get
    if (buf.set.length < words) { buf.set = new Array[Long](words); buf.granules = new Array[Int](64 * words) }
    val set = buf.set
    java.util.Arrays.fill(set, 0, words, -1L)
    var s = 0
    while (s < masks.length) {
      if ((masks(s) & 63) == 0) return null
      val row = (masks(s) >>> 6) * words
      var x, any = 0L
      var wi = 0
      while (wi < words) { x = set(wi) & pairSup(row + wi); set(wi) = x; any |= x; wi += 1 }
      if (any == 0L) return null
      s += 1
    }
    // S's granules in ascending order, for the candidate test.
    val granules = buf.granules
    var count, wi = 0
    while (wi < words) {
      var bits = set(wi)
      while (bits != 0L) {
        granules(count) = wi << 6 | java.lang.Long.numberOfTrailingZeros(bits)
        count += 1
        bits &= bits - 1
      }
      wi += 1
    }
    if (admitted(granules, count, cfg)) set else null
  }

  /** The parent's relation codes, then the `w` packed base 6 in `code`. */
  private def extendRels(parent: Array[Byte], code: Int, w: Int): Array[Byte] = {
    val rels = java.util.Arrays.copyOf(parent, parent.length + w)
    var c = code & 0xffffffffL
    for (i <- rels.indices.reverse.take(w)) { rels(i) = (c % 6).toByte; c /= 6 }
    rels
  }
}
