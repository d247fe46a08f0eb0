package repro.exp

import repro.core._
import repro.baseline.APSGrowth
import repro.data.SeasonalGen
import TableResult.pct

/** Experiment runners — one per evaluation table of the paper (DESIGN.md
  * §3). Each returns a [[TableResult]], which the bench suites print and
  * check. All runs are deterministic in the generator seeds.
  */
object Experiments {

  /** Build a season config from the paper's percentage parameterization. */
  def cfgOf(dbSize: Int, dataset: String, maxPeriodPct: Double,
            minDensityPct: Double, minSeason: Int): SeasonCfg = {
    val (dMin, dMax) = SeasonalGen.distInterval(dataset)
    SeasonCfg.fromPercent(dbSize, maxPeriodPct, minDensityPct, dMin, dMax, minSeason)
  }

  private def datasetOf(name: String) = SeasonalGen.dataset(SeasonalGen.preset(name))

  // ------------------------------------------------------------------
  // Table V — dataset characteristics
  // ------------------------------------------------------------------
  def tableV(names: Seq[String] = Seq("RE", "SC", "INF", "HFM")): TableResult = {
    val rows = names.toVector.map { n =>
      val (_, db) = datasetOf(n)
      val insPerSeq = db.rows.map(_.instances.size).sum.toDouble / db.size
      Vector(n, db.size.toString, SeasonalGen.preset(n).nSeries.toString,
        db.allEvents.size.toString, pct(insPerSeq))
    }
    TableResult("Table V analog — dataset characteristics",
      Vector("dataset", "#seq", "#time series", "#events", "#ins./seq"), rows,
      Vector("synthetic stand-ins for the paper's real datasets; see DESIGN.md"))
  }

  // ------------------------------------------------------------------
  // Table VII — A-STPM accuracy on the real-analog datasets
  // ------------------------------------------------------------------
  def tableVII(names: Seq[String] = Seq("RE", "INF"),
               minSeasons: Seq[Int] = Seq(8, 12, 16, 20),
               minDensities: Seq[Double] = Seq(0.5, 0.75, 1.0),
               maxK: Int = 2): TableResult = {
    val header = Vector("minSeason") ++
      names.flatMap(n => minDensities.map(d => s"$n $d%")).toVector
    val data = names.map { n => n -> datasetOf(n) }.toMap
    val rows = minSeasons.toVector.map { ms =>
      val cells = for (n <- names.toVector; d <- minDensities.toVector) yield {
        val (syb, db) = data(n)
        val cfg = STPMConfig(cfgOf(db.size, n, 0.4, d, ms), maxK = maxK)
        val exact = STPM.mine(db, cfg)
        val approx = ASTPM.mine(syb, db, cfg)
        pct(ASTPM.accuracy(approx.mining, exact))
      }
      Vector(ms.toString) ++ cells
    }
    TableResult("Table VII analog — A-STPM accuracy (%), maxPeriod=0.4%",
      header, rows)
  }

  // ------------------------------------------------------------------
  // Table VIII — qualitative: recovered seasonal patterns
  // ------------------------------------------------------------------
  def tableVIII(names: Seq[String] = Seq("RE", "INF"), topK: Int = 8): TableResult = {
    val rows = names.toVector.flatMap { n =>
      val (_, db) = datasetOf(n)
      val season = cfgOf(db.size, n, 0.4, 0.75, 8)
      val res = STPM.mine(db, STPMConfig(season, maxK = 3))
      res.frequent
        .filter(_.k >= 2)
        .sortBy(p => (-p.seasonCount(season), -p.support.size))
        .take(topK)
        .map { p =>
          Vector(n, p.key.render, p.seasonCount(season).toString,
            p.support.size.toString,
            p.seasons.take(3).map(s => s"[${s.first}..${s.last}]").mkString(" "))
        }
    }
    TableResult("Table VIII analog — recovered seasonal patterns " +
      "(maxPeriod=0.4%, minDensity=0.75%, minSeason=8)",
      Vector("dataset", "pattern", "#seasons", "|SUP|", "first seasons"), rows,
      Vector("planted ground truth: Contains-chains, one Overlaps/Follows pair per dataset"))
  }

  // ------------------------------------------------------------------
  // Tables IX / X / XIII / XIV — number of seasonal patterns
  // ------------------------------------------------------------------
  def patternCounts(name: String,
                    maxPeriods: Seq[Double] = Seq(0.2, 0.4, 0.6),
                    minSeasons: Seq[Int] = Seq(8, 12, 16),
                    minDensities: Seq[Double] = Seq(0.5, 0.75, 1.0),
                    maxK: Int = 2): TableResult = {
    val (_, db) = datasetOf(name)
    val header = Vector("maxPeriod(%)") ++
      (for (ms <- minSeasons; d <- minDensities) yield s"$ms-$d").toVector
    val rows = maxPeriods.toVector.map { mp =>
      val cells = for (ms <- minSeasons.toVector; d <- minDensities.toVector) yield {
        val cfg = STPMConfig(cfgOf(db.size, name, mp, d, ms), maxK = maxK)
        STPM.mine(db, cfg).frequent.size.toString
      }
      Vector(mp.toString) ++ cells
    }
    TableResult(s"Tables IX/X analog — #seasonal patterns on $name (maxK=$maxK)",
      header, rows)
  }

  // ------------------------------------------------------------------
  // Tables XI + XII (and XV/XVI/XVIII) — A-STPM pruning and accuracy on
  // scaled synthetic data. One mining pass feeds both tables.
  // ------------------------------------------------------------------
  final case class ScaledCell(size: Int, config: String, prunedSeriesPct: Double,
                              prunedEventsPct: Double, accuracyPct: Double)

  def scaledAstpm(base: String,
                  sizes: Seq[Int] = Seq(24, 48, 72, 96),
                  nCoarse: Int = 800,
                  configs: Seq[(Int, Double)] = Seq((12, 0.5), (16, 0.75), (20, 1.0)),
                  maxK: Int = 2): Vector[ScaledCell] = {
    for (size <- sizes.toVector; (ms, d) <- configs.toVector) yield {
      val spec = SeasonalGen.scaled(base, size, nCoarse)
      val (syb, db) = SeasonalGen.dataset(spec)
      val cfg = STPMConfig(cfgOf(db.size, base, 0.4, d, ms), maxK = maxK)
      val exact = STPM.mine(db, cfg)
      val approx = ASTPM.mine(syb, db, cfg)
      ScaledCell(size, s"$ms-$d%", approx.prunedSeriesPct,
        approx.prunedEventsPct(db), ASTPM.accuracy(approx.mining, exact))
    }
  }

  def tableXI(base: String, cells: Vector[ScaledCell]): TableResult = {
    val configs = cells.map(_.config).distinct
    val header = Vector("#series") ++ configs.map(c => s"series% $c") ++
      configs.map(c => s"events% $c")
    val rows = cells.groupBy(_.size).toVector.sortBy(_._1).map { case (size, cs) =>
      Vector(size.toString) ++
        configs.map(c => pct(cs.find(_.config == c).get.prunedSeriesPct)) ++
        configs.map(c => pct(cs.find(_.config == c).get.prunedEventsPct))
    }
    TableResult(s"Table XI analog — %% pruned time series / events by A-STPM ($base)",
      header, rows)
  }

  def tableXII(base: String, cells: Vector[ScaledCell]): TableResult = {
    val configs = cells.map(_.config).distinct
    val header = Vector("#series") ++ configs.map(c => s"accuracy% $c")
    val rows = cells.groupBy(_.size).toVector.sortBy(_._1).map { case (size, cs) =>
      Vector(size.toString) ++ configs.map(c => pct(cs.find(_.config == c).get.accuracyPct))
    }
    TableResult(s"Table XII analog — A-STPM accuracy on synthetic $base", header, rows)
  }

  // ------------------------------------------------------------------
  // Tables XIX / XX — tolerance buffer ε sensitivity
  // ------------------------------------------------------------------
  def epsilonSensitivity(names: Seq[String] = Seq("RE", "SC", "INF", "HFM"),
                         epsilons: Seq[Int] = Seq(0, 1, 2, 3),
                         maxK: Int = 2): TableResult = {
    val rows = names.toVector.flatMap { n =>
      val (_, db) = datasetOf(n)
      val season = cfgOf(db.size, n, 0.2, 0.5, 8)
      val counts = epsilons.toVector.map { eps =>
        val cfg = STPMConfig(season, rel = Relations.RelCfg(epsilon = eps), maxK = maxK)
        STPM.mine(db, cfg).frequent.size
      }
      val base = counts.head.toDouble
      epsilons.toVector.zip(counts).map { case (eps, c) =>
        val loss = if (base == 0) 0.0 else 100.0 * (base - c) / base
        Vector(n, eps.toString, c.toString, pct(loss))
      }
    }
    TableResult("Tables XIX/XX analog — ε sensitivity (maxPeriod=0.2%, " +
      "minDensity=0.5%, minSeason=8)",
      Vector("dataset", "ε (fine granules)", "#patterns", "loss vs ε=0 (%)"), rows)
  }

  // ------------------------------------------------------------------
  // Figs. 7–10 as a table — runtime & memory comparison
  // ------------------------------------------------------------------
  private def timed[A](body: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1000000L)
  }

  /** The run of median time among 5: one collector pause cannot reorder a row. */
  private def median5[A](body: => A): (A, Long) = Vector.fill(5)(timed(body)).sortBy(_._2).apply(2)

  def runtimeMemory(names: Seq[String] = Seq("RE", "INF"),
                    minSeasons: Seq[Int] = Seq(8, 16),
                    maxK: Int = 3): TableResult = {
    def row(n: String, ms: Int): Vector[String] = {
      val (syb, db) = datasetOf(n)
      val cfg = STPMConfig(cfgOf(db.size, n, 0.4, 0.75, ms), maxK = maxK)
      val (a, aMs) = median5(ASTPM.mine(syb, db, cfg))
      val (e, eMs) = median5(STPM.mine(db, cfg))
      val (b, bMs) = median5(APSGrowth.mine(db, cfg))
      Vector(n, ms.toString,
        aMs.toString, f"${a.nmiMillis}%.1f", eMs.toString, bMs.toString,
        a.mining.stats.peakEntries.toString, e.stats.peakEntries.toString,
        b._1.stats.peakEntries.toString,
        a.mining.frequent.size.toString, e.frequent.size.toString,
        b._1.frequent.size.toString)
    }
    // A discarded run on the first row's input: no timed row pays JIT warm-up.
    for (n <- names.headOption; ms <- minSeasons.headOption) row(n, ms)
    val rows = for (n <- names.toVector; ms <- minSeasons.toVector) yield row(n, ms)
    TableResult(s"Figs. 7-10 analog — runtime (ms) & memory (retained entries), " +
      s"maxPeriod=0.4%, minDensity=0.75%, maxK=$maxK",
      Vector("dataset", "minSeason", "A-STPM ms", "(MI ms)", "E-STPM ms",
        "APS-growth ms", "A entries", "E entries", "APS entries",
        "A #pat", "E #pat", "APS #pat"),
      rows,
      Vector("APS-growth entries = PS-tree nodes built", "ms: median of 5 runs",
        s"threads: E-STPM and A-STPM on a pool of ${sys.runtime.availableProcessors}, APS-growth on the calling thread",
        s"JVM max heap ${sys.runtime.maxMemory >> 20} MB, ${sys.runtime.availableProcessors} available processors"))
  }

  // ------------------------------------------------------------------
  // Figs. 15–16 as a table — pruning ablation
  // ------------------------------------------------------------------
  def pruningAblation(base: String = "INF", nSeries: Int = 12, nCoarse: Int = 400,
                      minSeasons: Seq[Int] = Seq(4, 8), maxK: Int = 3): TableResult = {
    val spec = SeasonalGen.scaled(base, nSeries, nCoarse)
    val (_, db) = SeasonalGen.dataset(spec)
    val variants = Seq(
      ("NoPrune", false, false), ("Apriori", true, false),
      ("Trans", false, true), ("All", true, true))
    def row(ms: Int): Vector[String] = {
      val season = cfgOf(db.size, base, 0.4, 0.75, ms)
      val cells = variants.toVector.flatMap { case (_, ap, tr) =>
        val cfg = STPMConfig(season, maxK = maxK, apriori = ap, transitivity = tr)
        val (r, millis) = median5(STPM.mine(db, cfg))
        Vector(millis.toString, r.stats.relationChecks.toString)
      }
      Vector(ms.toString) ++ cells
    }
    minSeasons.headOption.foreach(row) // discarded, as in `runtimeMemory`
    val rows = minSeasons.toVector.map(row)
    TableResult(s"Figs. 15-16 analog — pruning ablation on scaled $base " +
      s"($nSeries series x $nCoarse seq), maxK=$maxK",
      Vector("minSeason") ++ variants.toVector.flatMap { case (n, _, _) =>
        Vector(s"$n ms", s"$n checks")
      },
      rows,
      Vector("all four variants return identical pattern sets (asserted in tests)",
        "Apriori prunes events, groups and patterns with the season-structure bound (Seasonality.isCandidate); " +
          "the paper's |SUP| / minDensity is looser",
        "Trans mines a level-k group (k >= 3) only in the granules where each pair of an event with the new one " +
          "holds a candidate 2-pattern (pair supports, STPM.mineGroup); with Apriori, they must form a candidate"))
  }
}
