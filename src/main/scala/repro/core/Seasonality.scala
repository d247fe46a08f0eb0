package repro.core

/** Seasonality thresholds of the FreqSTPfTS problem (Sec. III-E).
  *
  * All four are expressed in absolute granule counts of D_SEQ; benches
  * convert the paper's percentage parameters with [[SeasonCfg.fromPercent]].
  */
final case class SeasonCfg(
    maxPeriod: Int,
    minDensity: Int,
    distMin: Int,
    distMax: Int,
    minSeason: Int) {
  require(maxPeriod >= 1, "maxPeriod must be >= 1")
  require(minDensity >= 1, "minDensity must be >= 1")
  require(distMin >= 0 && distMax >= distMin, "bad distInterval")
  require(minSeason >= 1, "minSeason must be >= 1")
}

object SeasonCfg {
  /** Convert percentage thresholds (Table VI) against `dbSize` granules. */
  def fromPercent(dbSize: Int, maxPeriodPct: Double, minDensityPct: Double,
                  distMin: Int, distMax: Int, minSeason: Int): SeasonCfg =
    SeasonCfg(
      maxPeriod = math.max(1, math.ceil(dbSize * maxPeriodPct / 100.0).toInt),
      minDensity = math.max(1, math.ceil(dbSize * minDensityPct / 100.0).toInt),
      distMin = distMin, distMax = distMax, minSeason = minSeason)
}

/** A near support set / season (Defs. 3.15–3.16): a maximal run of granule
  * positions whose consecutive periods are all <= maxPeriod.
  */
final case class NearSupport(granules: Vector[Int]) {
  require(granules.nonEmpty && granules.sliding(2).forall {
    case Seq(a, b) => a < b
    case _         => true
  }, "near support set must be non-empty and strictly increasing")

  def density: Int = granules.size
  def first: Int = granules.head
  def last: Int = granules.last
}

/** Season arithmetic (Defs. 3.14–3.17) and the candidate test the miner
  * prunes with.
  */
object Seasonality {

  /** The candidate test of Apriori-like pruning (Sec. IV-B, Lemmas 1–2)
    * for the support set `support(0 until n)`: its [[seasonBound]] reaches
    * minSeason. Every HLH level, HLH_1 included, admits by it.
    */
  def isCandidate(support: Array[Int], n: Int, cfg: SeasonCfg): Boolean =
    seasonBound(support, n, cfg) >= cfg.minSeason

  /** An upper bound on seasons(P′) (Def. 3.17) for every P′ whose support
    * set is a subset of `support(0 until n)`, P itself included; never
    * above the paper's maxSeason = ⌊n / minDensity⌋ (Eq. 1), and
    * anti-monotone as Apriori-like pruning needs (DESIGN.md §1). One pass,
    * allocating nothing: the near support sets (Def. 3.15) are cut into
    * stretches wherever the gap between two neighbours exceeds distMax,
    * and the bound is the largest stretch sum of ⌊|NS| / minDensity⌋. A
    * near support set of SUP′ lies inside one of SUP, which holds at most
    * ⌊|NS| / minDensity⌋ disjoint seasons, and no chain of seasons crosses
    * a cut.
    */
  def seasonBound(support: Array[Int], n: Int, cfg: SeasonCfg): Int = {
    var best, stretch = 0
    var i = 0
    while (i < n) {
      var j = i + 1 // support(i until j) is the near support set at i
      while (j < n && support(j) - support(j - 1) <= cfg.maxPeriod) j += 1
      if (i > 0 && support(i) - support(i - 1) > cfg.distMax) stretch = 0
      stretch += (j - i) / cfg.minDensity
      best = math.max(best, stretch)
      i = j
    }
    best
  }

  /** Split a sorted support set into its maximal near support sets: a new
    * set starts whenever the period to the previous granule exceeds
    * maxPeriod (Def. 3.15).
    */
  def nearSupportSets(support: IndexedSeq[Int], maxPeriod: Int): Vector[NearSupport] = {
    if (support.isEmpty) Vector.empty
    else {
      val out = Vector.newBuilder[NearSupport]
      var cur = Vector.newBuilder[Int]
      cur += support.head
      var prev = support.head
      for (g <- support.iterator.drop(1)) {
        require(g > prev, s"support set not strictly increasing at $g")
        if (g - prev > maxPeriod) { out += NearSupport(cur.result()); cur = Vector.newBuilder[Int] }
        cur += g
        prev = g
      }
      out += NearSupport(cur.result())
      out.result()
    }
  }

  /** Seasons (Def. 3.16): near support sets with density >= minDensity. */
  def seasonsOf(support: IndexedSeq[Int], cfg: SeasonCfg): Vector[NearSupport] =
    nearSupportSets(support, cfg.maxPeriod).filter(_.density >= cfg.minDensity)

  /** Distance between two (chronologically ordered) seasons (Def. 3.16):
    * |p(last granule of earlier) - p(first granule of later)|.
    */
  def dist(earlier: NearSupport, later: NearSupport): Int =
    math.abs(later.first - earlier.last)

  /** seasons(P) under the distInterval constraint (Def. 3.17): the length
    * of the longest run of *consecutive* seasons whose adjacent distances
    * all lie inside [distMin, distMax]. A single season counts as a run of
    * length 1 (matches the paper's worked examples, Sec. IV-B).
    */
  def seasonCount(seasons: Vector[NearSupport], cfg: SeasonCfg): Int = {
    if (seasons.isEmpty) 0
    else {
      var best = 1
      var run = 1
      for (i <- 1 until seasons.size) {
        val d = dist(seasons(i - 1), seasons(i))
        if (d >= cfg.distMin && d <= cfg.distMax) run += 1 else run = 1
        if (run > best) best = run
      }
      best
    }
  }

  /** The frequent-seasonal check of one support set (Def. 3.17):
    * `seasonCount(seasonsOf(support, cfg), cfg) >= minSeason` in one pass,
    * allocating nothing: each dense enough near support set is a season,
    * and extends the chain if its distance to the previous one is in range.
    */
  def isFrequentSeasonal(support: Array[Int], cfg: SeasonCfg): Boolean = {
    var best, run, prevLast = 0
    var i = 0
    while (i < support.length && best < cfg.minSeason) {
      var j = i + 1 // support(i until j) is the near support set at i
      while (j < support.length && support(j) - support(j - 1) <= cfg.maxPeriod) {
        if (support(j) <= support(j - 1))
          throw new IllegalArgumentException(s"support set not strictly increasing at ${support(j)}")
        j += 1
      }
      if (j - i >= cfg.minDensity) {
        val d = support(i) - prevLast
        run = if (run > 0 && d >= cfg.distMin && d <= cfg.distMax) run + 1 else 1
        prevLast = support(j - 1)
        best = math.max(best, run)
      }
      i = j
    }
    best >= cfg.minSeason
  }
}
