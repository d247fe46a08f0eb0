package stpmbench

import java.nio.file.{Files, Paths}
import scala.collection.mutable
import org.apache.spark.sql.SparkSession

/** One benchmark run in its own JVM: set up one workload, warm up, time
  * as many ops as fit in the requested seconds (at least one), and write
  * the per-op record as JSON.
  * `run.py` launches it, applies the checks and prints the result line.
  *
  * Set-up ends with the workload's own `warmUp` and then its first
  * `warmupOps` ops, which are warm-up. An op is still warming up
  * while the next op does not repeat its allocated bytes (within
  * `AllocTol`): the timed window then restarts after it, so every timed
  * op allocates what its neighbours do, and warm-up lasts until allocation
  * per op repeats.
  * With `--trace 1` each untraced op in the window is followed by a traced
  * op, and the per-layer sample comes from the traced ops.
  */
object Bench {
  /** Agreement of allocated bytes between consecutive ops that counts as a repeat. */
  val AllocTol = 0.005

  final case class Opts(
      workload: String, seed: Long, seconds: Double, trace: Boolean,
      out: String, spans: String, launchMs: Long,
      hardLimitS: Double,
      sparkMaster: String, shufflePartitions: Int, workDir: String)

  private def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad argument ${other.mkString(" ")}")
    }.toMap
    def get(k: String): String = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(get("workload"), get("seed").toLong, get("seconds").toDouble, get("trace") == "1",
      get("out"), get("spans"), get("launch-ms").toLong,
      get("hard-limit-s").toDouble, get("spark-master"), get("shuffle-partitions").toInt,
      get("work-dir"))
  }

  final case class OpRec(
      index: Int, kind: String, startMs: Long, wallS: Double, allocMb: Double,
      gcS: Double, peakLiveMb: Double, digest: String, error: String,
      counters: collection.Map[String, Long]) {
    def ok: Boolean = error.isEmpty
    def json: mutable.LinkedHashMap[String, Any] = mutable.LinkedHashMap(
      "index" -> index, "kind" -> kind, "start_ms" -> startMs, "wall_s" -> wallS,
      "alloc_mb" -> allocMb, "gc_s" -> gcS, "peak_live_mb" -> peakLiveMb,
      "digest" -> digest, "error" -> error, "counters" -> counters)
  }

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val gc = new GcWatch
    var session: SparkSession = null
    def spark: SparkSession = {
      if (session == null) session = startSpark(o)
      session
    }
    val wl = Workloads.create(o.workload, o.seed, spark)
    val tracer = new Tracer(wl.allThreads)
    val ops = mutable.ArrayBuffer.empty[OpRec]
    val samples = mutable.ArrayBuffer.empty[(Int, mutable.LinkedHashMap[String, Double])]
    def allocated(): Long = if (wl.allThreads) Meters.totalAllocated() else Meters.threadAllocated()

    def runOp(kind: String): OpRec = {
      gc.mark()
      val a0 = allocated(); val g0 = Meters.gcMillis()
      val startMs = System.currentTimeMillis(); val t0 = System.nanoTime()
      val rec = try {
        val r = kind match {
          case "warmup" | "timed" => wl.op()
          case "traced" =>
            tracer.op += 1
            val (res, sample) = wl.tracedOp(tracer)
            samples += ops.size -> sample
            res
        }
        val wall = (System.nanoTime() - t0) / 1e9
        val alloc = (allocated() - a0) / 1048576.0
        val gcS = (Meters.gcMillis() - g0) / 1000.0
        val digest = Digest.of(r.mining.frequent)
        val mismatch = wl.expectedDigest.filter(_ != digest)
          .map(d => s"digest $digest differs from the set-up reference $d").getOrElse("")
        OpRec(ops.size, kind, startMs, wall, alloc, gcS, gc.peakBytes / 1048576.0,
          digest, mismatch, Counters.of(r))
      } catch {
        case e: Throwable => // OutOfMemoryError included: a failed op
          OpRec(ops.size, kind, startMs, (System.nanoTime() - t0) / 1e9, 0.0, 0.0, 0.0,
            "", s"${e.getClass.getName}: ${e.getMessage}", Map.empty)
      }
      ops += rec
      rec
    }

    def repeats(a: OpRec, b: OpRec): Boolean =
      a.ok && b.ok && math.abs(b.allocMb - a.allocMb) <= AllocTol * a.allocMb

    val startNs = System.nanoTime()
    def elapsedS: Double = (System.nanoTime() - startNs) / 1e9

    // Untraced ops in order; the timed window is a suffix of them.
    val plain = mutable.ArrayBuffer.empty[OpRec]
    wl.warmUp()
    for (_ <- 1 to wl.warmupOps) plain += runOp("warmup")
    var start = plain.size
    def window: collection.Seq[OpRec] = plain.drop(start)
    def windowS: Double = (System.currentTimeMillis() - window.head.startMs) / 1000.0
    // A lone timed op counts once it repeats the allocation of the op before it.
    def confirmed: Boolean =
      window.size >= 2 || (start > 0 && repeats(plain(start - 1), window.head))
    var stop = false
    while (!stop) {
      val rec = runOp("timed")
      plain += rec
      if (plain.size - start >= 2 && !repeats(plain(plain.size - 2), rec)) {
        val prev = plain(plain.size - 2)
        ops(prev.index) = prev.copy(kind = "warmup")
        start = plain.size - 1
      }
      if (o.trace && rec.ok) runOp("traced")
      // Start another op only if it should end within the measuring time.
      stop = (confirmed && windowS + rec.wallS > o.seconds) || elapsedS >= o.hardLimitS ||
        ops.exists(!_.ok)
    }
    // A traced op follows the untraced op it is paired with.
    val windowSamples = samples.collect { case (i, m) if window.exists(_.index == i - 1) => m }

    val result = mutable.LinkedHashMap[String, Any](
      "workload" -> o.workload, "seed" -> o.seed, "trace" -> o.trace,
      "launch_ms" -> o.launchMs, "first_timed_ms" -> window.head.startMs,
      "steady" -> confirmed, // window ops repeat each other by construction
      "alloc_tol" -> AllocTol,
      "timed_indices" -> window.map(_.index),
      "ops" -> ops.map(_.json),
      "layers" -> median(windowSamples))
    if (o.trace)
      Files.write(Paths.get(o.spans), Json.render(tracer.spansJson).getBytes("UTF-8"))
    if (session != null) session.stop()
    Files.write(Paths.get(o.out), Json.render(result).getBytes("UTF-8"))
  }

  /** Per-metric median over the traced ops' samples. */
  private def median(samples: collection.Seq[mutable.LinkedHashMap[String, Double]])
      : mutable.LinkedHashMap[String, Double] = {
    val out = mutable.LinkedHashMap.empty[String, Double]
    for (k <- samples.headOption.toSeq.flatMap(_.keys)) {
      val v = samples.flatMap(_.get(k)).sorted
      out(k) = if (v.size % 2 == 1) v(v.size / 2) else (v(v.size / 2 - 1) + v(v.size / 2)) / 2
    }
    out
  }

  /** A local SparkSession with pinned parallelism, its scratch space under
    * the benchmark's work directory.
    */
  private def startSpark(o: Opts): SparkSession = {
    val dir = Paths.get(o.workDir).toAbsolutePath
    SparkSession.builder
      .master(o.sparkMaster)
      .appName(s"stpmbench-${o.workload}")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", dir.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", dir.resolve("spark-warehouse").toUri.toString)
      .config("spark.sql.shuffle.partitions", o.shufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .getOrCreate()
  }
}
