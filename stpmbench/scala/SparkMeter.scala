package stpmbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** Spark-side counters of the traced run, summed from task-end and
  * block-update events. Events arrive on Spark's listener thread, so
  * `snapshot()` first runs a one-task marker job under its own job group
  * and waits until this listener has seen that job end: every event posted
  * before it has then been delivered. Marker jobs are not counted.
  */
final class SparkMeter(sc: SparkContext) extends SparkListener {
  import SparkMeter._

  private val lock = new Object
  private var totals = Totals()
  private var markerStages = Set.empty[Int]
  private var markerJobs = Set.empty[Int]
  private var markersDone = 0L

  override def onJobStart(e: SparkListenerJobStart): Unit = lock.synchronized {
    if (Option(e.properties).exists(p => p.getProperty(JobGroupKey) == MarkerGroup)) {
      markerStages ++= e.stageIds
      markerJobs += e.jobId
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = lock.synchronized {
    if (markerJobs.contains(e.jobId)) {
      markersDone += 1
      lock.notifyAll()
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = lock.synchronized {
    val m = e.taskMetrics
    if (!markerStages.contains(e.stageId) && m != null) {
      totals = totals.copy(
        tasks = totals.tasks + 1,
        runMs = totals.runMs + m.executorRunTime,
        cpuNs = totals.cpuNs + m.executorCpuTime,
        gcMs = totals.gcMs + m.jvmGCTime,
        resultBytes = totals.resultBytes + m.resultSize,
        shuffleBytes = totals.shuffleBytes + m.shuffleWriteMetrics.bytesWritten +
          m.shuffleReadMetrics.totalBytesRead)
    }
  }

  override def onBlockUpdated(e: SparkListenerBlockUpdated): Unit = lock.synchronized {
    val info = e.blockUpdatedInfo
    // Serialized broadcast pieces are what executors fetch.
    if (info.blockId.isBroadcast && info.blockId.name.contains("_piece") &&
        info.storageLevel.isValid)
      totals = totals.copy(broadcastBytes = totals.broadcastBytes + info.memSize + info.diskSize)
  }

  def snapshot(): Totals = {
    val target = lock.synchronized(markersDone) + 1
    sc.setJobGroup(MarkerGroup, "listener sync", interruptOnCancel = false)
    try sc.parallelize(Seq(1), 1).count()
    finally sc.clearJobGroup()
    val deadline = System.nanoTime() + 5000000000L
    lock.synchronized {
      while (markersDone < target && System.nanoTime() < deadline) lock.wait(20)
      totals
    }
  }
}

object SparkMeter {
  private val JobGroupKey = "spark.jobGroup.id"
  private val MarkerGroup = "stpmbench-marker"

  final case class Totals(
      tasks: Long = 0, runMs: Long = 0, cpuNs: Long = 0, gcMs: Long = 0,
      resultBytes: Long = 0, shuffleBytes: Long = 0, broadcastBytes: Long = 0) {
    def -(o: Totals): Totals = Totals(tasks - o.tasks, runMs - o.runMs, cpuNs - o.cpuNs,
      gcMs - o.gcMs, resultBytes - o.resultBytes, shuffleBytes - o.shuffleBytes,
      broadcastBytes - o.broadcastBytes)
  }
}
