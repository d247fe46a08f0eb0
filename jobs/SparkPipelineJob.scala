package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.SeasonalGen
import repro.exp.{Experiments, TableResult}

/** End-to-end Spark pipeline demo: generate a preset as a raw DataFrame,
  * run Phase 1 (symbolize → sequence mapping → instances) in executor
  * tasks, shuffling only runs of one symbol and encoding each series with
  * the local run encoder, mine with every level's group tasks on Spark,
  * and print the frequent seasonal patterns. Args: [dataset] [minSeason];
  * the master is `SPARK_MASTER` (default `local[*]`).
  */
object SparkPipelineJob {
  def main(args: Array[String]): Unit = {
    val name = args.headOption.getOrElse("INF")
    val minSeason = args.lift(1).map(_.toInt).getOrElse(8)
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"stpm-$name")
      .getOrCreate()
    try {
      val spec = SeasonalGen.preset(name)
      val raw = SparkSTPM.rawDF(spark, SeasonalGen.rawSeries(spec))
      val cuts = (0 until spec.nSeries)
        .map(i => SeasonalGen.seriesName(i) -> SeasonalGen.Cuts).toMap
      val sym = SparkSTPM.symbolize(raw, cuts)
      val inst = SparkSTPM.toInstances(sym, spec.m)
      val db = SparkSTPM.collectSeqDB(inst, spec.m)
      val cfg = STPMConfig(
        Experiments.cfgOf(db.size, name, 0.4, 0.75, minSeason), maxK = 3)
      val res = SparkSTPM.mine(spark, db, cfg)
      val rows = res.frequent.sortBy(p => (-p.k, -p.support.size)).take(30).toVector
        .map(p => Vector(p.key.render, p.k.toString, p.support.size.toString,
          p.seasonCount(cfg.season).toString))
      println(TableResult(
        s"Distributed STPM on $name (minSeason=$minSeason): " +
          s"${res.frequent.size} frequent seasonal patterns",
        Vector("pattern", "k", "|SUP|", "#seasons"), rows).render)
    } finally spark.stop()
  }
}
