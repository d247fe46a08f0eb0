package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Spark orchestration of FreqSTPfTS (DESIGN.md §5).
  *
  * Phase 1 (data transformation) runs in executor tasks: the raw frame is an
  * RDD of whole series, so no raw row enters the logical plan; rows are
  * symbolized and folded into runs of one symbol inside each input
  * partition, only the runs are shuffled by series, and each series' runs
  * are merged and cut into instances by [[SequenceDB.encode]], the run
  * encoder of the local [[SequenceDB.build]]. In Phase 2 every level
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
    * (series, granule, symbol, start, end) with fine positions.
    *
    * Each input partition first folds its rows, in arrival order, into
    * runs (series, start, end, symbol): maximal stretches of one series'
    * consecutive positions that hold one symbol. Only the runs are
    * shuffled, by series, over `spark.sql.shuffle.partitions` partitions;
    * an explicit width keeps adaptive execution from coalescing the reduce
    * side into one task. Each reduce task groups its runs by series and
    * hands each series to [[SequenceDB.encode]], which sorts them by start,
    * merges a run split across input partitions and cuts runs at granule
    * boundaries. Each series' positions must be 1, 2, 3, ...; a missing
    * or repeated position fails the job, naming its series and position.
    */
  def toInstances(sym: DataFrame, m: Int): DataFrame = {
    require(m >= 1, "granularity factor must be >= 1")
    val spark = sym.sparkSession
    import spark.implicits._
    sym.select("series", "pos", "symbol").as[(String, Int, String)]
      .mapPartitions { rows =>
        val in = rows.buffered
        Iterator.continually(in).takeWhile(_.hasNext).map { _ =>
          val (series, start, symbol) = in.next()
          var end = start
          while (in.hasNext && { val (s, p, y) = in.head; p == end + 1 && y == symbol && s == series })
            end = in.next()._2
          (series, start, end, symbol)
        }
      }
      .toDF("series", "start", "end", "symbol")
      .repartition(spark.conf.get("spark.sql.shuffle.partitions").toInt, col("series"))
      .as[(String, Int, Int, String)]
      .mapPartitions { runs =>
        val out = Vector.newBuilder[(String, Int, String, Int, Int)]
        for ((series, rs) <- runs.toVector.groupMap(_._1)(r => (r._2, r._3, r._4)))
          SequenceDB.encode(series, rs, m)((g, symbol, start, end) => out += ((series, g, symbol, start, end)))
        out.result().iterator
      }
      .toDF("series", "granule", "symbol", "start", "end")
  }

  /** Materialize the instance frame into the local mining model: the event
    * dictionary is the rows' distinct events, and the rows, coded with it,
    * go to the assembler of the local [[SequenceDB.build]]
    * ([[SeqDB.assemble]]). Series of different lengths (a series' length is
    * its last instance's end) are rejected, as by the local [[SymbolicDB]].
    */
  def collectSeqDB(instances: DataFrame, m: Int): SeqDB = {
    val rows = instances.select("granule", "series", "symbol", "start", "end").collect()
    val lengths = rows.groupMapReduce(_.getString(1))(_.getInt(4))(math.max).toVector.sorted
    for ((x, nx) <- lengths.headOption; (y, ny) <- lengths.find(_._2 != nx))
      MutualInformation.requireAligned(x, nx, y, ny)
    val rowEvents = rows.map(r => Event(r.getString(1), r.getString(2)))
    val events = rowEvents.distinct.sorted.toVector
    val id = events.zipWithIndex.toMap
    SeqDB.assemble(m, events, rows.iterator.map(_.getInt(0)).maxOption.getOrElse(0)) { sink =>
      for ((r, e) <- rows.iterator.zip(rowEvents)) sink(r.getInt(0), id(e), r.getInt(3), r.getInt(4))
    }
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
