package repro.core

import scala.collection.mutable

/** A temporal event identity (Def. 3.9): a symbol of one symbolic time
  * series, e.g. `C:1` — series "C" holding symbol "1".
  */
final case class Event(series: String, symbol: String) {
  /** Paper notation, e.g. "C:1". */
  def key: String = s"$series:$symbol"
  override def toString: String = key
}

object Event {
  /** Total order used wherever determinism requires one (group keys,
    * tie-breaks between instances with identical intervals).
    */
  implicit val ordering: Ordering[Event] =
    Ordering.by((e: Event) => (e.series, e.symbol))
}

/** A closed interval of fine-granule positions `[start, end]`, 1-based. */
final case class Interval(start: Int, end: Int) {
  require(start <= end, s"empty interval [$start,$end]")
  override def toString: String = s"[$start,$end]"
}

/** An event instance (Def. 3.9): one occurrence of an event. */
final case class Instance(event: Event, interval: Interval) {
  def start: Int = interval.start
  def end: Int = interval.end
  override def toString: String = s"(${event.key},$interval)"
}

object Instance {
  /** Canonical storage order: chronological, ties by end then event
    * (series, then symbol). Used for granule rows and duplicate-combination
    * canonicalization; compares fields in place, allocating nothing.
    */
  implicit val ordering: Ordering[Instance] = new Ordering[Instance] {
    def compare(a: Instance, b: Instance): Int = {
      var c = Integer.compare(a.start, b.start)
      if (c == 0) c = Integer.compare(a.end, b.end)
      if (c == 0) c = a.event.series.compareTo(b.event.series)
      if (c == 0) c = a.event.symbol.compareTo(b.event.symbol)
      c
    }
  }
}

/** One row of the temporal sequence database (Def. 3.13): the coarse
  * granule at `pos` and the temporal sequences of all series in it, flattened
  * to one canonical chronologically-ordered instance list.
  */
final case class GranuleRow(pos: Int, instances: Vector[Instance]) {
  require({
    var i = 1
    while (i < instances.size && Instance.ordering.lteq(instances(i - 1), instances(i))) i += 1
    i >= instances.size
  }, s"instances of granule $pos are not in canonical order")

  def events: Set[Event] = instances.iterator.map(_.event).toSet
}

/** The temporal sequence database D_SEQ at one granularity (Def. 3.13),
  * integer-coded.
  *
  * `m` is the fold factor from the symbolic granularity G (Def. 3.11).
  * `allEvents` is the event dictionary: the distinct events of D_SEQ in
  * [[Event.ordering]], an event's id being its index there.
  * `granules(g - 1)` holds granule g's instances as (event id, start, end)
  * triples in [[Instance.ordering]], which for these ids is (start, end, id)
  * order; granules are 1-based and dense. [[SeqDB.assemble]] builds it, for
  * the local [[SequenceDB.build]] and Spark's [[SparkSTPM.collectSeqDB]].
  */
final class SeqDB private (val m: Int, val allEvents: Vector[Event], val granules: Array[Array[Int]]) {
  /** |D_SEQ| — the number of temporal-sequence rows (granules). */
  def size: Int = granules.length

  /** Granule `pos` rendered as objects. */
  def row(pos: Int): GranuleRow = {
    val t = granules(pos - 1)
    GranuleRow(pos, Vector.tabulate(t.length / 3)(i => Instance(allEvents(t(3 * i)), Interval(t(3 * i + 1), t(3 * i + 2)))))
  }

  /** Every granule rendered as objects, in position order. */
  def rows: Vector[GranuleRow] = Vector.tabulate(size)(g => row(g + 1))
}

object SeqDB {
  /** Receives one instance: event `id` over fine positions `start..end`,
    * inside granule g. Its parameters are `Int`s, so a lambda boxes nothing.
    */
  private[repro] trait Sink { def apply(g: Int, id: Int, start: Int, end: Int): Unit }

  /** D_SEQ with `n` granules over the event dictionary `events` (sorted,
    * distinct), from the instances that `fill` hands to its [[Sink]] in
    * any order. Each instance is packed into one `Long` ordered as
    * (granule, start, end, id), and the keys are sorted once; an `m`, `n`
    * or event count whose keys would overflow a `Long` is rejected.
    */
  private[repro] def assemble(m: Int, events: Vector[Event], n: Int)(fill: Sink => Unit): SeqDB = {
    require(m >= 1, "granularity factor must be >= 1")
    val ne = events.size.toLong
    require(ne == 0 || n == 0 || ne <= Long.MaxValue / n / m / m,
      s"$n granules of $m positions and ${events.size} events overflow the instance keys")
    val perGranule = m.toLong * m * ne
    val keys = new mutable.ArrayBuilder.ofLong
    fill { (g, id, start, end) =>
      val lo = (g - 1).toLong * m + 1
      keys.addOne((g - 1) * perGranule + ((start - lo) * m + (end - lo)) * ne + id)
    }
    val sorted = keys.result()
    java.util.Arrays.sort(sorted)
    var x = 0
    val granules = Array.tabulate(n) { g =>
      var to = x
      while (to < sorted.length && sorted(to) / perGranule == g) to += 1
      val t = new Array[Int](3 * (to - x))
      val lo = g.toLong * m + 1
      var o = 0
      while (x < to) {
        val key = sorted(x) % perGranule
        val pos = key / ne // (start - lo) * m + (end - lo)
        t(o) = (key % ne).toInt; t(o + 1) = (lo + pos / m).toInt; t(o + 2) = (lo + pos % m).toInt
        o += 3; x += 1
      }
      t
    }
    new SeqDB(m, events, granules)
  }
}
