package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.TableResult

/** Shared entrypoint plumbing for the spark-submit jobs: one SparkSession
  * per job (the experiment kernels are driver-side; Phase-1 jobs use the
  * DataFrame pipeline), table printed to stdout.
  */
object JobSupport {
  def withSpark[A](name: String)(body: SparkSession => A): A = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .getOrCreate()
    try body(spark) finally spark.stop()
  }

  def emit(t: TableResult): Unit = println(t.render)
}
