package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.SortExec
import org.apache.spark.sql.execution.adaptive.{AQEShuffleReadExec, AdaptiveSparkPlanExec, AdaptiveSparkPlanHelper}
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.data.SeasonalGen

/** Spark Phase-1 pipeline and distributed mining, cross-checked against the
  * local kernel and (symbol histogram, run-length encoding) against DuckDB
  * via the Oracle.
  */
class SparkSTPMSpec extends SparkSpec {

  private lazy val spec = SeasonalGen.Spec(
    name = "spark-test", nSeries = 4, nCoarse = 60, m = 4,
    planted = Vector(SeasonalGen.Planted(
      Vector(SeasonalGen.Participant(0, 1, 4), SeasonalGen.Participant(1, 2, 4)),
      period = 12, window = 4)),
    noise = 0.05, seed = 3L)
  private lazy val raw = SeasonalGen.rawSeries(spec)
  private lazy val rawDf = SparkSTPM.rawDF(spark, raw).cache()
  private lazy val cuts = raw.map { case (id, _) => id -> SeasonalGen.Cuts }.toMap
  private lazy val symDf = SparkSTPM.symbolize(rawDf, cuts).cache()
  private lazy val instDf = SparkSTPM.toInstances(symDf, spec.m).cache()

  test("rawDF has one row per (series, pos)") {
    assert(rawDf.columns.toSeq == Seq("series", "pos", "value"))
    assert(rawDf.count() == spec.nSeries.toLong * spec.fineLength)
    assert(rawDf.select("series").distinct().count() == spec.nSeries)
  }

  /** The message of the `IllegalArgumentException` in the cause chain of
    * the failure of `body`; a task failure wraps the executor's exception.
    */
  private def rejection(body: => Any): String = {
    val e = intercept[Exception](body)
    val cause = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
      .collectFirst { case iae: IllegalArgumentException => iae }
    assert(cause.isDefined, e)
    cause.get.getMessage
  }

  private val half = Vector(0.5)

  /** Spark Phase 1 of `raw` with one cut at 0.5, its raw frame passed
    * through `arrange` first, and its local counterpart.
    */
  private def sparkPhase1(raw: Vector[(String, Vector[Double])], m: Int,
                          arrange: DataFrame => DataFrame = identity): SeqDB = {
    val sym = SparkSTPM.symbolize(arrange(SparkSTPM.rawDF(spark, raw)), raw.map(_._1 -> half).toMap)
    SparkSTPM.collectSeqDB(SparkSTPM.toInstances(sym, m), m)
  }
  private def localPhase1(raw: Vector[(String, Vector[Double])], m: Int): SeqDB =
    SequenceDB.build(SymbolicDB(raw.map { case (id, vs) =>
      SymbolicSeries(id, Symbolizer.thresholds(vs, half)) }), m)

  test("symbolize rejects a NaN value, naming its series and position") {
    val df = SparkSTPM.rawDF(spark, Vector(("A", Vector(0.1, 0.9)), ("B", Vector(0.2, Double.NaN))))
    val msg = rejection(SparkSTPM.symbolize(df, Map("A" -> half, "B" -> half)).collect())
    assert(msg.contains("series B, position 2"), msg)
  }

  test("toInstances rejects a missing position, naming its series and position") {
    // Positions 4 and 6 of A hold the same symbol: without the check the
    // gap would be absorbed into one instance [4,6].
    val df = SparkSTPM.rawDF(spark, Vector(("A", Vector(0.1, 0.9, 0.2, 0.8, 0.1, 0.7)),
      ("B", Vector.fill(6)(0.2)))).filter(!(col("series") === "A" && col("pos") === 5))
    val msg = rejection(SparkSTPM.toInstances(SparkSTPM.symbolize(df, Map("A" -> half, "B" -> half)), 3).collect())
    assert(msg.contains("missing value at series A, position 5"), msg)
  }

  test("toInstances rejects a repeated position, naming its series and position") {
    val base = SparkSTPM.rawDF(spark, Vector(("A", Vector(0.1, 0.9, 0.2)), ("B", Vector(0.2, 0.8, 0.3))))
    val df = base.union(base.filter(col("series") === "B" && col("pos") === 2))
    val msg = rejection(SparkSTPM.toInstances(SparkSTPM.symbolize(df, Map("A" -> half, "B" -> half)), 1).collect())
    assert(msg.contains("repeated value at series B, position 2"), msg)
  }

  test("an empty input gives an empty SeqDB that mines to nothing, as locally") {
    val db = sparkPhase1(Vector.empty, 4)
    assert(Decode.layout(db) == ((4, Vector.empty, Vector.empty)))
    val cfg = Fixtures.stpmCfg.copy(maxK = 3)
    assert(STPM.mine(db, cfg).frequent.isEmpty)
    assert(SparkSTPM.mine(spark, db, cfg, parallelism = 4).frequent.isEmpty)
  }

  test("a constant series gives one instance per granule, as SequenceDB.build") {
    // 10 positions at m 4: granules of 4, 4 and a trailing 2.
    val raw = Vector(("C", Vector.fill(10)(0.7)), ("D", Vector(0.1, 0.9, 0.2, 0.8, 0.1, 0.9, 0.2, 0.8, 0.1, 0.9)))
    val db = sparkPhase1(raw, 4)
    assert(Decode.layout(db) == Decode.layout(localPhase1(raw, 4)))
    assert(db.rows.map(Decode.instancesOf(_, Event("C", "1")).map(_.interval)) ==
      Vector(Vector(Interval(1, 4)), Vector(Interval(5, 8)), Vector(Interval(9, 10))))
  }

  /** Run `body` at each of the given `spark.sql.shuffle.partitions`, then restore the setting. */
  private def atShuffleWidths(widths: Int*)(body: Int => Unit): Unit = {
    val conf = "spark.sql.shuffle.partitions"
    val saved = spark.conf.get(conf)
    try for (parts <- widths) {
      spark.conf.set(conf, parts.toString)
      body(parts)
    } finally spark.conf.set(conf, saved)
  }

  test("toInstances equals SequenceDB.build at any shuffle width and granularity") {
    // Scrambled (`orderBy(rand(7))`) or with each series split over input
    // partitions (`repartition(5)`), runs reach the encoder in fragments and
    // out of order.
    val raw = SeasonalGen.rawSeries(spec.copy(nCoarse = 13)) // 52 positions: a partial granule at m 3
    val arrangements = Seq[(String, DataFrame => DataFrame)](
      "as made" -> identity, "orderBy(rand(7))" -> (_.orderBy(rand(7))), "repartition(5)" -> (_.repartition(5)))
    atShuffleWidths(1, 7) { parts =>
      for ((name, arrange) <- arrangements; m <- Seq(1, 3))
        assert(Decode.layout(sparkPhase1(raw, m, arrange)) == Decode.layout(localPhase1(raw, m)), s"$name, $parts partitions, m $m")
    }
  }

  test("toInstances rejects a position repeated inside one input partition or across two") {
    def partition(rows: (String, Int, Double)*): DataFrame =
      spark.createDataFrame(spark.sparkContext.parallelize(rows, 1)).toDF("series", "pos", "value")
    val inside = partition(("A", 1, 0.1), ("B", 1, 0.2), ("B", 2, 0.8), ("B", 2, 0.8),
      ("A", 2, 0.9), ("B", 3, 0.3), ("A", 3, 0.2))
    val across = partition(("A", 1, 0.1), ("A", 2, 0.9), ("A", 3, 0.2), ("B", 1, 0.2), ("B", 2, 0.8))
      .union(partition(("B", 2, 0.8), ("B", 3, 0.3)))
    for ((df, parts) <- Seq(inside -> 1, across -> 2)) {
      assert(df.rdd.getNumPartitions == parts)
      val msg = rejection(SparkSTPM.toInstances(SparkSTPM.symbolize(df, Map("A" -> half, "B" -> half)), 1).collect())
      assert(msg.contains("repeated value at series B, position 2"), msg)
    }
  }

  test("toInstances runs as one uncoalesced shuffle of runs with no Spark sort") {
    // A shuffle that adaptive execution coalesces puts the whole reduce side,
    // every series' merge and cut, in one task on one core. A Spark sort
    // (`sortWithinPartitions`) on this path made allocation per op jump in
    // 32 MB steps from op to op, with the sorter's pages, so the bench's
    // warm-up, which waits for allocation to repeat, did not settle.
    val raw = SeasonalGen.rawSeries(spec.copy(nCoarse = 13))
    atShuffleWidths(4) { parts =>
      val inst = SparkSTPM.toInstances(SparkSTPM.symbolize(SparkSTPM.rawDF(spark, raw),
        raw.map(_._1 -> half).toMap), 3)
      inst.collect()
      val plan = inst.queryExecution.executedPlan
      assert(plan.isInstanceOf[AdaptiveSparkPlanExec], plan)
      val shuffles = PlanNodes.collect(plan) { case e: ShuffleExchangeExec => e }
      assert(shuffles.size == 1, plan)
      assert(shuffles.head.numPartitions == parts, plan)
      assert(PlanNodes.collect(plan) { case s: SortExec => s }.isEmpty, plan)
      assert(PlanNodes.collect(plan) { case r: AQEShuffleReadExec if r.hasCoalescedPartition => r }.isEmpty, plan)
    }
  }

  test("symbolize matches the local Symbolizer (oracle: threshold count)") {
    val localSyb = SeasonalGen.symbolic(spec)
    val sparkSyms = symDf.collect()
      .map(r => ((r.getString(0), r.getInt(1)), r.getString(2))).toMap
    for (s <- localSyb.series; (sym, i) <- Decode.symbols(s).zipWithIndex)
      assert(sparkSyms((s.id, i + 1)) == sym, s"series ${s.id} pos ${i + 1}")
  }

  test("oracle: symbol histogram per series matches DuckDB") {
    val agg = symDf.groupBy("series", "symbol").agg(count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(agg,
      "SELECT series, symbol, COUNT(*) AS cnt FROM sym GROUP BY series, symbol",
      "sym" -> symDf)
  }

  test("oracle: run-length encoding matches a DuckDB window-function query") {
    val sql =
      """
      WITH base AS (
        SELECT series, CAST(pos AS INT) AS p, symbol,
               ((CAST(pos AS INT) - 1) // 4) + 1 AS granule
        FROM sym
      ), runs AS (
        SELECT series, p, symbol, granule,
               CASE WHEN LAG(symbol) OVER w IS DISTINCT FROM symbol
                      OR LAG(granule) OVER w IS DISTINCT FROM granule
                    THEN 1 ELSE 0 END AS new_run
        FROM base
        WINDOW w AS (PARTITION BY series ORDER BY p)
      ), ids AS (
        SELECT series, p, symbol, granule,
               SUM(new_run) OVER (PARTITION BY series ORDER BY p) AS run_id
        FROM runs
      )
      SELECT series, granule, symbol,
             MIN(p) AS start, MAX(p) AS "end"
      FROM ids GROUP BY series, granule, symbol, run_id
      """
    Oracle.assertEquivalent(
      instDf.select("series", "granule", "symbol", "start", "end"),
      sql, "sym" -> symDf)
  }

  test("collectSeqDB equals the local SequenceDB.build") {
    val local = SequenceDB.build(SeasonalGen.symbolic(spec), spec.m)
    val viaSpark = SparkSTPM.collectSeqDB(instDf, spec.m)
    assert(viaSpark.size == local.size)
    assert(Decode.layout(viaSpark) == Decode.layout(local))
  }

  test("Spark Phase 1 rejects series of different lengths") {
    val raw = SparkSTPM.rawDF(spark, Vector(("A", Vector(0.1, 0.9, 0.2)), ("B", Vector(0.2, 0.8))))
    val sym = SparkSTPM.symbolize(raw, Map("A" -> Vector(0.5), "B" -> Vector(0.5)))
    val e = intercept[IllegalArgumentException](
      SparkSTPM.collectSeqDB(SparkSTPM.toInstances(sym, 1), 1))
    assert(e.getMessage.contains("A (3 positions)") && e.getMessage.contains("B (2 positions)"),
      e.getMessage)
  }

  test("distributed mining equals the local kernel on the paper example") {
    val db = Fixtures.tableIV
    val cfg = Fixtures.stpmCfg.copy(maxK = 3)
    val local = STPM.mine(db, cfg)
    val dist = SparkSTPM.mine(spark, db, cfg, parallelism = 4)
    assert(dist.keys == local.keys)
    val localByKey = local.frequent.map(p => p.key -> p).toMap
    for (p <- dist.frequent) {
      assert(p.support == localByKey(p.key).support)
      assert(p.seasons == localByKey(p.key).seasons)
    }
  }

  test("distributed mining equals the local kernel at maxK 4 without Apriori pruning") {
    // Trans-only: level 4 reads the event-pair table level 3 built, on the executors.
    for (db <- Seq(Fixtures.tableIV, TestData.randomDb(3, 90, 3, 7L))) {
      val cfg = STPMConfig(TestData.lenient, maxK = 4, apriori = false)
      val local = STPM.mine(db, cfg)
      val dist = SparkSTPM.mine(spark, db, cfg, parallelism = 4)
      assert(local.stats.candidateGroups.contains(4))
      assert(dist.frequent == local.frequent)
      assert(dist.stats.toString == local.stats.toString)
    }
  }

  test("groups extended from several parent patterns mine alike inline, pooled and on Spark") {
    // Level-2 groups holding two or more candidate patterns, each walked
    // on its own by the kernel, whose level-3 extensions keep patterns of
    // two parents (the first relation code is the parent's).
    val db = TestData.randomDb(4, 90, 3, 2L)
    for (maxK <- Seq(3, 4); apriori <- Seq(true, false)) {
      val cfg = STPMConfig(TestData.lenient, maxK = maxK, apriori = apriori)
      val hlh1 = HLH1.build(db, cfg.season, cfg.apriori)
      val h3 = STPM.mineLevel(hlh1, STPM.mineLevel(hlh1, hlh1, cfg, new MiningStats), cfg, new MiningStats)
      val multi = h3.groups.filter(_.patterns.map(_.rels(0)).distinct.length >= 2)
      assert(multi.nonEmpty, s"maxK=$maxK apriori=$apriori")
      val inline = STPM.mineFiltered(db, cfg, None, None, STPM.inline)
      val pooled = STPM.mine(db, cfg)
      val dist = SparkSTPM.mine(spark, db, cfg, parallelism = 4)
      for (other <- Seq(pooled, dist)) {
        assert(other.frequent == inline.frequent, s"maxK=$maxK apriori=$apriori")
        assert(other.stats.toString == inline.stats.toString, s"maxK=$maxK apriori=$apriori")
      }
      if (maxK == 3) {
        val multiKeys = multi.flatMap(gm => gm.patterns.map(p => hlh1.key(gm.group, p.rels))).toSet
        assert(inline.frequent.exists(p => multiKeys(p.key)), s"apriori=$apriori")
        def table(ps: Vector[FrequentPattern]) = ps.map(p => p.key -> ((p.support, p.seasons))).toMap
        assert(table(inline.frequent) == table(ReferenceMiner.mine(db, cfg.season, cfg.rel, 3)))
      }
    }
  }

  test("an input with no level-2 task mines to nothing, locally and on Spark") {
    val cfg = Fixtures.stpmCfg.copy(maxK = 3)
    val noEvent = cfg.copy(season = cfg.season.copy(minSeason = Fixtures.tableIV.size + 1))
    for ((db, c) <- Seq((SeqDB.assemble(1, Vector.empty, 0)(_ => ()), cfg), (Fixtures.tableIV, noEvent))) {
      assert(STPM.mine(db, c).frequent.isEmpty)
      assert(SparkSTPM.mine(spark, db, c, parallelism = 4).frequent.isEmpty)
    }
  }

  test("distributed mining equals the local kernel on generated data") {
    val db = SparkSTPM.collectSeqDB(instDf, spec.m)
    val cfg = STPMConfig(SeasonCfg(2, 3, 4, 20, 2), maxK = 3)
    val local = STPM.mine(db, cfg)
    val dist = SparkSTPM.mine(spark, db, cfg, parallelism = 8)
    assert(local.frequent.nonEmpty)
    assert(dist.keys == local.keys)
  }
}

/** Walks a physical plan into adaptive query stages. */
private object PlanNodes extends AdaptiveSparkPlanHelper
