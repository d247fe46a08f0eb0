package repro.data

import scala.util.Random
import repro.core._

/** Synthetic seasonal multivariate time series — the stand-in for the
  * paper's RE / SC / INF / HFM datasets (DESIGN.md §2, dataset
  * substitution).
  *
  * Each dataset is `nSeries` aligned numeric series over `nCoarse * m`
  * fine granules. *Planted patterns* make groups of series co-activate
  * inside seasonal windows that repeat every `period` coarse granules;
  * participants activate staggered fine-slot sub-intervals so the planted
  * relations (Contains / Overlaps / Follows) are known ground truth.
  * Background noise flips symbols independently, creating the spurious
  * event mass the paper's pattern-count tables sweep over.
  *
  * Geometry is tuned for A-STPM's μ threshold (Eq. 14, empirically ≈
  * 0.73–0.85 on binary data): with m = 24 fine slots per granule and a
  * 1-slot stagger, adjacent participants are symbol-level near-duplicates
  * (NMI ≈ 0.85) and pass μ, while disjoint-slot participants and pure
  * noise series fall far below it — giving A-STPM both prunable mass and
  * a small, controlled accuracy loss, as in the paper's Tables VII/XI/XII.
  *
  * Values are generated around two levels (low ≈ 0.2, high ≈ 0.8) and
  * symbolized with a fixed 0.5 threshold, so the symbolic ground truth is
  * exact and independent of the data distribution.
  */
object SeasonalGen {

  /** One participant of a planted pattern: which series, and which fine
    * slots (1-based, inclusive) of an active coarse granule it occupies.
    */
  final case class Participant(series: Int, slotFrom: Int, slotTo: Int)

  /** A planted seasonal pattern: participants co-activate during windows
    * `[phase + i*period, phase + i*period + window)` (coarse positions,
    * 0-based phase). `strength` is the probability that a window granule
    * activates (drawn once per granule, shared by all participants).
    */
  final case class Planted(
      participants: Vector[Participant],
      period: Int,
      window: Int,
      phase: Int = 0,
      strength: Double = 1.0) {
    require(window < period, "window must be shorter than period")
    /** Distance between consecutive fully-dense seasons (Def. 3.16). */
    def seasonDistance: Int = period - window + 1
  }

  /** A full dataset specification.
    *
    * Every series carries a *blocky* two-level background (a slow Markov
    * switch between levels 0 and 1, shared by all participants of a
    * planted group — redundant co-located sensors — and independent for
    * non-participants), on top of which participants spike to level 2
    * inside their activation slots. `noise` is per-slot independent
    * background corruption; [[SpikeProb]] gives non-participants rare,
    * non-seasonal level-2 spikes so the full alphabet exists everywhere.
    *
    * This shape matters: with an iid binary background, the "low" symbol
    * occurs in essentially every granule, and any universal event paired
    * with any seasonal event forms a frequent seasonal pattern on an
    * *uncorrelated* series pair — an artifact quantile-coded real data
    * does not have. The blocky 3-level background keeps every event's
    * granule support partial and irregular, as in the paper's datasets.
    */
  final case class Spec(
      name: String,
      nSeries: Int,
      nCoarse: Int,
      m: Int,
      planted: Vector[Planted],
      noise: Double = 0.001,
      seed: Long = 42L) {
    require(planted.flatMap(_.participants).forall(p =>
      p.series < nSeries && p.slotFrom >= 1 && p.slotTo <= m && p.slotFrom <= p.slotTo),
      "participants out of range")
    def fineLength: Int = nCoarse * m
  }

  /** Per-position probability that the background switches level, either
    * way: blocks short relative to minSeason seasons keep background
    * events from chaining across enough seasons to look frequent-seasonal.
    */
  private val SwitchProb = 0.0025

  /** Per-position probability of a non-participant's level-2 spike. */
  private val SpikeProb = 0.001

  /** Value levels and the matching symbolization cut points. */
  val Levels: Vector[Double] = Vector(0.15, 0.45, 0.8)
  val Cuts: Vector[Double] = Vector(0.3, 0.6)

  /** Generate the raw numeric series of a spec (deterministic in seed). */
  def rawSeries(spec: Spec): Vector[(String, Vector[Double])] = {
    val rnd = new Random(spec.seed)
    val n = spec.fineLength
    // One background path per planted group + one per free series. The
    // switch is symmetric, so each path starts at either level with
    // probability 1/2.
    def bgPath(): Array[Int] = {
      val a = new Array[Int](n)
      var lvl = if (rnd.nextDouble() < 0.5) 1 else 0
      var p = 0
      while (p < n) {
        if (rnd.nextDouble() < SwitchProb) lvl = 1 - lvl
        a(p) = lvl
        p += 1
      }
      a
    }
    val groupOf: Map[Int, Int] = (for {
      (pl, gi) <- spec.planted.zipWithIndex
      pt <- pl.participants
    } yield pt.series -> gi).toMap
    val groupBg = spec.planted.indices.map(_ => bgPath())
    val values = Array.ofDim[Double](spec.nSeries, n)
    for (s <- 0 until spec.nSeries) {
      val bg = groupOf.get(s).map(groupBg).getOrElse(bgPath())
      for (p <- 0 until n) {
        val lvl =
          if (rnd.nextDouble() < spec.noise) 1 - bg(p)     // background flip
          else if (groupOf.get(s).isEmpty && rnd.nextDouble() < SpikeProb) 2
          else bg(p)
        values(s)(p) = Levels(lvl)
      }
    }
    // Planted activations overwrite the background at level 2.
    for (pl <- spec.planted) {
      var start = pl.phase
      while (start < spec.nCoarse) {
        for (g <- start until math.min(start + pl.window, spec.nCoarse)) {
          val active = rnd.nextDouble() < pl.strength
          if (active) {
            for (pt <- pl.participants) {
              val base = g * spec.m
              for (slot <- pt.slotFrom to pt.slotTo)
                values(pt.series)(base + slot - 1) = Levels(2)
            }
          }
        }
        start += pl.period
      }
    }
    (0 until spec.nSeries).toVector.map { s =>
      (seriesName(s), values(s).toVector)
    }
  }

  def seriesName(i: Int): String = f"S$i%03d"

  /** Symbolize with the fixed level cuts: symbols "0", "1", "2". */
  def symbolic(spec: Spec): SymbolicDB =
    SymbolicDB(rawSeries(spec).map { case (id, vs) =>
      SymbolicSeries(id, Symbolizer.thresholds(vs, Cuts))
    })

  /** The (D_SYB, D_SEQ) pair of a spec. */
  def dataset(spec: Spec): (SymbolicDB, SeqDB) = {
    val syb = symbolic(spec)
    (syb, SequenceDB.build(syb, spec.m))
  }

  // ---------------------------------------------------------------------
  // Shared building blocks for the presets.
  // ---------------------------------------------------------------------

  /** A Contains-chain of `n` participants staggered by 1 fine slot each —
    * symbol-level near-duplicates that survive A-STPM's μ filter. Starts
    * at slot 2, never slot 1: leaving the first fine slot low keeps the
    * background "0" event present in every granule, so its support has a
    * single season and complementary-0 patterns never become frequent —
    * concentrating the frequent-pattern mass on the correlated series, as
    * in the paper's real data.
    */
  private def chain(m: Int, first: Int, n: Int, period: Int, window: Int,
                    phase: Int, strength: Double = 1.0): Planted =
    Planted((0 until n).toVector.map(i => Participant(first + i, 2 + i, m)),
      period, window, phase, strength)

  /** An Overlaps pair with small slot overlap — low NMI, pruned by A-STPM
    * (the approximation's controlled accuracy-loss mass).
    */
  private def overlapPair(m: Int, first: Int, period: Int, window: Int,
                          phase: Int): Planted =
    Planted(Vector(Participant(first, 1, m / 2), Participant(first + 1, m / 2 - 2, m)),
      period, window, phase)

  /** A Follows pair with disjoint slots — low NMI, pruned by A-STPM. */
  private def followsPair(m: Int, first: Int, period: Int, window: Int,
                          phase: Int): Planted =
    Planted(Vector(Participant(first, 1, m / 2 - 2), Participant(first + 1, m / 2 + 2, m)),
      period, window, phase)

  // ---------------------------------------------------------------------
  // Presets mirroring Table V's real datasets. Season distances land
  // inside the paper's distInterval ([90,270] for RE/SC, [30,90] for
  // INF/HFM); see EXPERIMENTS.md for the mapping.
  // ---------------------------------------------------------------------

  private val M = 24

  /** Per-preset distInterval used by the benches. Narrower than the
    * paper's ([90,270] / [30,90]) so that a chain skipping a whole period
    * (distance ≈ 2·period − window) falls outside the interval — on iid
    * synthetic backgrounds the wide intervals admit skip-chains through
    * background blocks that real smooth data does not produce at this
    * rate. Documented in EXPERIMENTS.md.
    */
  def distInterval(name: String): (Int, Int) = name.toUpperCase match {
    case "RE" | "SC" => (90, 200)
    case "INF"       => (30, 66)
    case "HFM"       => (30, 75)
    case other       => throw new IllegalArgumentException(s"unknown preset $other")
  }

  /** Renewable energy analog: 21 series, 1460 daily sequences (4 years).
    * Three near-duplicate chains (kept by A-STPM) + one low-NMI Overlaps
    * pair (A-STPM's accuracy-loss mass) + 12 noise series.
    */
  def re(seed: Long = 42L): Spec = Spec(
    name = "RE", nSeries = 21, nCoarse = 1460, m = M,
    planted = Vector(
      chain(M, first = 0, n = 3, period = 120, window = 20, phase = 0),
      chain(M, first = 3, n = 2, period = 150, window = 24, phase = 30),
      chain(M, first = 5, n = 2, period = 135, window = 22, phase = 55),
      overlapPair(M, first = 7, period = 200, window = 30, phase = 60),
    ),
    noise = 0.001, seed = seed)

  /** Smart-city analog: 14 series, 1249 sequences. */
  def sc(seed: Long = 43L): Spec = Spec(
    name = "SC", nSeries = 14, nCoarse = 1249, m = M,
    planted = Vector(
      chain(M, first = 0, n = 3, period = 150, window = 22, phase = 0),
      chain(M, first = 3, n = 2, period = 160, window = 24, phase = 40),
      overlapPair(M, first = 5, period = 190, window = 28, phase = 20),
    ),
    noise = 0.001, seed = seed)

  /** Influenza analog: 25 series, 608 sequences, short seasonal periods. */
  def inf(seed: Long = 44L): Spec = Spec(
    name = "INF", nSeries = 25, nCoarse = 608, m = M,
    planted = Vector(
      chain(M, first = 0, n = 3, period = 45, window = 10, phase = 0),
      chain(M, first = 3, n = 2, period = 60, window = 14, phase = 12),
      chain(M, first = 5, n = 2, period = 50, window = 12, phase = 20),
      chain(M, first = 7, n = 2, period = 65, window = 14, phase = 30),
      // Short-period chain: 16+ chained seasons, so the paper's
      // minSeason = 16 grid column is populated (dist 30, 16.4 seasons).
      chain(M, first = 9, n = 2, period = 37, window = 8, phase = 16),
      overlapPair(M, first = 11, period = 75, window = 12, phase = 25),
    ),
    noise = 0.001, seed = seed)

  /** Hand-foot-mouth analog: 24 series, 730 sequences. */
  def hfm(seed: Long = 45L): Spec = Spec(
    name = "HFM", nSeries = 24, nCoarse = 730, m = M,
    planted = Vector(
      chain(M, first = 0, n = 2, period = 50, window = 10, phase = 0),
      chain(M, first = 2, n = 3, period = 73, window = 12, phase = 15),
      chain(M, first = 5, n = 2, period = 60, window = 11, phase = 28),
      // Short-period chain for the minSeason = 16 column (730/44 ≈ 16.6).
      chain(M, first = 9, n = 2, period = 44, window = 8, phase = 22),
      followsPair(M, first = 7, period = 66, window = 12, phase = 8),
    ),
    noise = 0.001, seed = seed)

  def preset(name: String, seed: Long = 42L): Spec = name.toUpperCase match {
    case "RE"  => re(seed)
    case "SC"  => sc(seed)
    case "INF" => inf(seed)
    case "HFM" => hfm(seed)
    case other => throw new IllegalArgumentException(s"unknown preset $other")
  }

  /** Scalability dataset (the paper's synthetic RE/INF, scaled down):
    * `nSeries` series in blocks of 6 — a 3-participant planted group whose
    * stagger cycles 1/2/3 slots (near-duplicate → borderline → pruned
    * NMI), plus three pure-noise series per block (the prunable mass).
    */
  def scaled(base: String, nSeries: Int, nCoarse: Int, seed: Long = 46L): Spec = {
    val (period, window) = base.toUpperCase match {
      case "RE"  => (120, 20)
      case "INF" => (45, 10)
      case "SC"  => (150, 22)
      case "HFM" => (50, 10)
      case other => throw new IllegalArgumentException(s"unknown base $other")
    }
    require(nSeries >= 6 && nSeries % 6 == 0, "nSeries must be a positive multiple of 6")
    val blocks = nSeries / 6
    val planted = (0 until blocks).toVector.map { b =>
      val s0 = b * 6
      // Stagger cycle 1/1/2: most blocks are near-duplicate chains that
      // A-STPM keeps; every third block is borderline (its accuracy-loss
      // mass). Periods and phases are spread so cross-block coincidences
      // rarely chain into spurious seasonal patterns.
      val stagger = if (b % 3 == 2) 2 else 1
      val p = period + (b % 5) * (period / 7)
      Planted(
        Vector(Participant(s0, 2, M), Participant(s0 + 1, 2 + stagger, M),
          Participant(s0 + 2, 2 + 2 * stagger, M)),
        period = p, window = window, phase = (b * 13) % p)
    }
    Spec(s"${base.toUpperCase}-syn-$nSeries", nSeries, nCoarse, m = M,
      planted = planted, noise = 0.001, seed = seed)
  }
}
