package stpmbench

import scala.collection.mutable
import repro.core._
import repro.data.SeasonalGen

/** Prints the output digest of each workload for a range of seeds, in
  * `reference.json`'s shape. spark-re's reference is the local miner at
  * maxK 2 on the same input (the Spark-vs-local contract), so recording it
  * needs no Spark. `record.py` runs this.
  */
object Record {
  def digest(workload: String, seed: Long): String = workload match {
    case "spark-re" =>
      val (_, db) = Workloads.phase1(Input.of(Workloads.SparkRe.spec(seed)))
      Digest.of(STPM.mine(db, Workloads.config(db, "RE", 2)).frequent)
    case other =>
      Digest.of(Workloads.create(other, seed, sys.error("no Spark here")).op().mining.frequent)
  }

  def main(args: Array[String]): Unit = {
    val Array(workload, from, to) = args
    val out = mutable.LinkedHashMap.empty[String, String]
    for (seed <- from.toLong to to.toLong) out(seed.toString) = digest(workload, seed)
    println(Json.render(mutable.LinkedHashMap(workload -> out)))
  }
}
