package stpmbench

import scala.collection.mutable

/** One timed call into a layer. `parent` is the enclosing span's id (-1 at
  * the root); `op` numbers the traced op the span belongs to. Allocation is
  * counted on the calling thread for local layers and on all threads for
  * Spark layers (see [[Tracer]]).
  */
final case class Span(
    id: Int, parent: Int, op: Int, name: String,
    startNs: Long, endNs: Long, allocBytes: Long, gcMillis: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
  def allocMb: Double = allocBytes / 1048576.0
  def gcSeconds: Double = gcMillis / 1000.0
}

/** Per-layer measurements of one op: wall time, allocation and GC time.
  * A layer measured as the difference of two calls gets the difference of
  * their costs; its GC time is floored at 0, since a collection can fall
  * into either call.
  */
final case class Cost(s: Double, allocMb: Double, gcS: Double) {
  def -(o: Cost): Cost = Cost(s - o.s, allocMb - o.allocMb, math.max(0.0, gcS - o.gcS))
}

object Cost {
  def of(sp: Span): Cost = Cost(sp.seconds, sp.allocMb, sp.gcSeconds)
}

/** Records spans in memory; `spansJson` renders them once the run ends. */
final class Tracer(val allThreads: Boolean) {
  private val recorded = mutable.ArrayBuffer.empty[Span]
  private var stack: List[Int] = Nil
  private val epochNs = System.nanoTime()
  var op = 0

  private def allocated(): Long =
    if (allThreads) Meters.totalAllocated() else Meters.threadAllocated()

  def span[A](name: String)(body: => A): A = {
    val id = recorded.size
    val parent = stack.headOption.getOrElse(-1)
    recorded += null // reserve the id; filled in when the span closes
    stack = id :: stack
    val a0 = allocated(); val g0 = Meters.gcMillis(); val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      recorded(id) = Span(id, parent, op, name, t0, t1, allocated() - a0, Meters.gcMillis() - g0)
      stack = stack.tail
    }
  }

  /** The latest closed span of the current op with this name. */
  def last(name: String): Span =
    recorded.reverseIterator.find(s => s != null && s.op == op && s.name == name)
      .getOrElse(throw new NoSuchElementException(s"no span $name in op $op"))

  def cost(name: String): Cost = Cost.of(last(name))

  def spans: Vector[Span] = recorded.iterator.filter(_ != null).toVector

  /** Self time: duration minus the time covered by direct children. */
  def selfSeconds(sp: Span): Double = {
    val children = recorded.iterator.filter(c => c != null && c.parent == sp.id)
    sp.seconds - children.map(_.seconds).sum
  }

  def spansJson: Vector[mutable.LinkedHashMap[String, Any]] = spans.map { sp =>
    mutable.LinkedHashMap[String, Any](
      "id" -> sp.id, "parent" -> sp.parent, "op" -> sp.op, "name" -> sp.name,
      "start_s" -> (sp.startNs - epochNs) / 1e9, "end_s" -> (sp.endNs - epochNs) / 1e9,
      "dur_s" -> sp.seconds, "self_s" -> selfSeconds(sp),
      "alloc_mb" -> sp.allocMb, "gc_s" -> sp.gcSeconds)
  }
}
