package repro.core

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

  test("symbolize rejects a NaN value, naming its series and position") {
    val df = SparkSTPM.rawDF(spark, Vector(("A", Vector(0.1, 0.9)), ("B", Vector(0.2, Double.NaN))))
    val cuts = Map("A" -> Vector(0.5), "B" -> Vector(0.5))
    val e = intercept[Exception](SparkSTPM.symbolize(df, cuts).collect())
    val cause = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
      .collectFirst { case iae: IllegalArgumentException => iae }
    assert(cause.isDefined, e)
    assert(cause.get.getMessage.contains("series B, position 2"), cause.get.getMessage)
  }

  test("symbolize matches the local Symbolizer (oracle: threshold count)") {
    val localSyb = SeasonalGen.symbolic(spec)
    val sparkSyms = symDf.collect()
      .map(r => ((r.getString(0), r.getInt(1)), r.getString(2))).toMap
    for (s <- localSyb.series; (sym, i) <- s.symbols.zipWithIndex)
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
    for ((a, b) <- viaSpark.rows.zip(local.rows))
      assert(a == b, s"granule ${b.pos} differs")
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
    // Trans-only reaches the level-4 event-pair table on the executors.
    for (db <- Seq(Fixtures.tableIV, TestData.randomDb(3, 90, 3, 7L))) {
      val cfg = STPMConfig(TestData.lenient, maxK = 4, apriori = false)
      val local = STPM.mine(db, cfg)
      val dist = SparkSTPM.mine(spark, db, cfg, parallelism = 4)
      assert(local.stats.candidateGroups.contains(4))
      assert(dist.frequent == local.frequent)
      assert(dist.stats.toString == local.stats.toString)
    }
  }

  test("an input with no level-2 task mines to nothing, locally and on Spark") {
    val cfg = Fixtures.stpmCfg.copy(maxK = 3)
    val noEvent = cfg.copy(season = cfg.season.copy(minSeason = Fixtures.tableIV.size + 1))
    for ((db, c) <- Seq((SeqDB(1, Vector.empty), cfg), (Fixtures.tableIV, noEvent))) {
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
