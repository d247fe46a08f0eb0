package stpmbench

import java.lang.management.{ManagementFactory, MemoryType}
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData
import scala.jdk.CollectionConverters._
import com.sun.management.GarbageCollectionNotificationInfo

/** JVM-wide readings the benchmark takes around ops and layers. */
object Meters {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val collectors = ManagementFactory.getGarbageCollectorMXBeans.asScala.toVector

  /** Bytes allocated by the calling thread since it started. */
  def threadAllocated(): Long = threads.getCurrentThreadAllocatedBytes

  /** Bytes allocated by all threads, including ended ones, since JVM start. */
  def totalAllocated(): Long = threads.getTotalThreadAllocatedBytes

  /** Accumulated collection time of all collectors, in milliseconds. */
  def gcMillis(): Long = collectors.iterator.map(_.getCollectionTime).filter(_ >= 0).sum

  /** Number of collections of all collectors so far. */
  def gcCount(): Long = collectors.iterator.map(_.getCollectionCount).filter(_ >= 0).sum
}

/** Heap occupancy right after each collection, from the JVM's GC
  * notifications. `mark()` forces a full collection, waits for its
  * notification and starts a new window; `peakBytes` is then the highest
  * after-collection heap occupancy seen since the mark, that full
  * collection included, so a window without a collection still reads the
  * live heap it started from.
  */
final class GcWatch {
  private val heapPools: Set[String] = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == MemoryType.HEAP).map(_.getName).toSet
  private val lock = new Object
  private var seen = 0L
  private var peak = 0L

  private val listener = new NotificationListener {
    def handleNotification(n: Notification, handback: Any): Unit =
      if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
        val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
        val used = info.getGcInfo.getMemoryUsageAfterGc.asScala.iterator
          .collect { case (pool, u) if heapPools.contains(pool) => u.getUsed }.sum
        lock.synchronized {
          seen += 1
          if (used > peak) peak = used
          lock.notifyAll()
        }
      }
  }

  ManagementFactory.getGarbageCollectorMXBeans.asScala.foreach {
    case e: NotificationEmitter => e.addNotificationListener(listener, null, null)
    case _ => ()
  }

  /** Wait until every collection so far has been notified (bounded wait). */
  def settle(): Unit = {
    val target = Meters.gcCount()
    val deadline = System.nanoTime() + 2000000000L
    lock.synchronized {
      while (seen < target && System.nanoTime() < deadline) lock.wait(50)
    }
  }

  def mark(): Unit = {
    settle()
    lock.synchronized { peak = 0L }
    System.gc()
    settle()
  }

  def peakBytes: Long = { settle(); lock.synchronized(peak) }
}
