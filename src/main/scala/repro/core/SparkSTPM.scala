package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Spark orchestration of FreqSTPfTS (DESIGN.md §5).
  *
  * Phase 1 (data transformation) runs in executor tasks: the raw frame is an
  * RDD of whole series, so no raw row enters the logical plan; rows are
  * symbolized, shuffled by series, sorted by position and run-length encoded
  * one series at a time by [[SequenceDB.build]]. In Phase 2 every level
  * k >= 2 is distributed through the local miner's executor seam ([[STPM.Exec]]):
  * the level's group tasks are partitioned and mined inside
  * `mapPartitions` by the same group-mining kernel, against that level's
  * broadcast read-only inputs (HLH_1, the previous level's groups and the
  * event-pair table); the driver lists the tasks and keeps the barrier
  * between levels. A-STPM's MI stage runs locally ([[ASTPM]]).
  */
object SparkSTPM {

  // ------------------------------------------------------------------
  // Phase 1 — DataFrame pipeline
  // ------------------------------------------------------------------

  /** Lift raw series into a (series, pos, value) frame made in tasks, one RDD element per series. */
  def rawDF(spark: SparkSession, raw: Vector[(String, Vector[Double])]): DataFrame = {
    val sc = spark.sparkContext
    spark.createDataFrame(sc.parallelize(raw.map { case (id, vs) => (id, vs.toArray) },
        math.max(1, math.min(raw.size, sc.defaultParallelism)))
      .flatMap { case (id, vs) => vs.iterator.zipWithIndex.map { case (v, i) => (id, i + 1, v) } })
      .toDF("series", "pos", "value")
  }

  /** Symbolize raw values with per-series ascending cut points (Def. 3.7)
    * through [[Symbolizer.symbolOf]]; a NaN value fails the job, naming its
    * series and position.
    */
  def symbolize(raw: DataFrame, cutsBySeries: Map[String, Vector[Double]]): DataFrame = {
    val enc = udf { (series: String, pos: Int, value: Double) =>
      val cuts = cutsBySeries.getOrElse(series,
        throw new NoSuchElementException(s"no cuts for series $series"))
      Symbolizer.symbolOf(value, cuts, pos, series)
    }
    raw.select(col("series"), col("pos"),
      enc(col("series"), col("pos"), col("value")).as("symbol"))
  }

  /** Sequence mapping g: X_S →_m H plus run-length encoding (Defs.
    * 3.11–3.12): one output row per event instance —
    * (series, granule, symbol, start, end) with fine positions. Each
    * series' positions must be 1, 2, 3, ...; a missing or repeated
    * position fails the job, naming its series and position.
    */
  def toInstances(sym: DataFrame, m: Int): DataFrame = {
    require(m >= 1, "granularity factor must be >= 1")
    import sym.sparkSession.implicits._
    sym.repartition(col("series")).sortWithinPartitions("series", "pos")
      .select("series", "pos", "symbol").as[(String, Int, String)]
      .mapPartitions { sorted => // whole series, each in position order
        val rows = sorted.buffered
        Iterator.continually(rows).takeWhile(_.hasNext).flatMap { _ =>
          val series = rows.head._1
          val symbols = Vector.newBuilder[String]
          var n = 0
          while (rows.hasNext && rows.head._1 == series) {
            val (_, pos, symbol) = rows.next()
            n += 1
            if (pos != n) throw new IllegalArgumentException(
              if (pos > n) s"missing value at series $series, position $n"
              else if (n > 1) s"repeated value at series $series, position $pos"
              else s"positions of series $series start at $pos, not 1")
            symbols += symbol
          }
          SequenceDB.build(SymbolicDB(Vector(SymbolicSeries(series, symbols.result()))), m).rows
            .iterator.flatMap(r => r.instances.map(i => (series, r.pos, i.event.symbol, i.start, i.end)))
        }
      }
      .toDF("series", "granule", "symbol", "start", "end")
  }

  /** Materialize the instance frame into the local mining model. Series of
    * different lengths (a series' length is its last instance's end) are
    * rejected, as by the local [[SymbolicDB]].
    */
  def collectSeqDB(instances: DataFrame, m: Int): SeqDB = {
    val collected = instances
      .select("granule", "series", "symbol", "start", "end")
      .collect()
      .map(r => (r.getInt(0),
        Instance(Event(r.getString(1), r.getString(2)), Interval(r.getInt(3), r.getInt(4)))))
    val lengths = collected.groupMapReduce(_._2.event.series)(_._2.interval.end)(math.max).toVector.sorted
    for ((x, nx) <- lengths.headOption; (y, ny) <- lengths.find(_._2 != nx))
      MutualInformation.requireAligned(x, nx, y, ny)
    val byGranule = collected.groupBy(_._1)
    val n = if (byGranule.isEmpty) 0 else byGranule.keys.max
    val rows = (1 to n).toVector.map { g =>
      GranuleRow(g, byGranule.getOrElse(g, Array.empty).map(_._2).toVector.sorted(Instance.ordering))
    }
    SeqDB(m, rows)
  }

  // ------------------------------------------------------------------
  // Phase 2 — distributed mining
  // ------------------------------------------------------------------

  /** E-STPM with every level's group tasks fanned out via `mapPartitions`
    * over that level's broadcast [[Level]]. Identical results to
    * [[STPM.mine]] (asserted by the test suite); parallelism defaults to
    * the cluster's default parallelism.
    */
  def mine(spark: SparkSession, db: SeqDB, cfg: STPMConfig,
           parallelism: Int = 0): MiningResult = {
    val sc = spark.sparkContext
    val parts = if (parallelism > 0) parallelism else sc.defaultParallelism
    val exec: STPM.Exec = (level, tasks) =>
      if (tasks.isEmpty) Vector.empty
      else {
        val bcLevel = sc.broadcast(level)
        try sc.parallelize(tasks, math.min(parts, tasks.size))
          .mapPartitions { it => val l = bcLevel.value; it.flatMap(l.mine) }
          .collect() // partitions are contiguous slices: input order is kept
          .toVector
        finally bcLevel.destroy()
      }
    STPM.mineFiltered(db, cfg, None, None, exec)
  }
}
