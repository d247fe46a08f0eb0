package repro.core

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

  def parse(s: String): Event = {
    val i = s.lastIndexOf(':')
    require(i > 0, s"bad event literal '$s'")
    Event(s.substring(0, i), s.substring(i + 1))
  }
}

/** A closed interval of fine-granule positions `[start, end]`, 1-based. */
final case class Interval(start: Int, end: Int) {
  require(start <= end, s"empty interval [$start,$end]")
  /** Duration in fine granules (inclusive endpoints). */
  def duration: Int = end - start + 1
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

/** The temporal sequence database D_SEQ at one granularity (Def. 3.13).
  *
  * `m` is the fold factor from the symbolic granularity G (Def. 3.11);
  * rows are ordered by granule position and positions are 1-based and dense.
  */
final case class SeqDB(m: Int, rows: Vector[GranuleRow]) {
  require(rows.zipWithIndex.forall { case (r, i) => r.pos == i + 1 },
    "granule positions must be dense and 1-based")

  /** |D_SEQ| — the number of temporal-sequence rows (granules). */
  def size: Int = rows.size

  /** All distinct events appearing anywhere in the database. */
  lazy val allEvents: Vector[Event] =
    rows.iterator.flatMap(_.instances.iterator.map(_.event)).toVector.distinct.sorted

  def row(pos: Int): GranuleRow = rows(pos - 1)
}
