package repro.core

import scala.collection.mutable

/** Object views of the Int-encoded HLH levels, for tests that assert on
  * patterns, support sets and instance tuples, and the readers of the
  * model that only tests need.
  */
object Decode {

  /** The event of a literal such as "C:1"; the last colon separates. */
  def event(s: String): Event = {
    val i = s.lastIndexOf(':')
    require(i > 0, s"bad event literal '$s'")
    Event(s.substring(0, i), s.substring(i + 1))
  }

  /** Duration in fine granules (inclusive endpoints). */
  def duration(i: Interval): Int = i.end - i.start + 1

  /** A series' runs in position order: 1-based positions `start..end` hold `symbol`. */
  def runs(s: SymbolicSeries): Vector[(Int, Int, String)] =
    s.ends.indices.toVector.map(r => (if (r == 0) 1 else s.ends(r - 1) + 1, s.ends(r), s.alphabet(s.codes(r))))

  /** The symbol at each position, rendered from the runs. */
  def symbols(s: SymbolicSeries): Vector[String] =
    runs(s).flatMap { case (start, end, symbol) => Vector.fill(end - start + 1)(symbol) }

  def byId(syb: SymbolicDB, id: String): SymbolicSeries =
    syb.series.find(_.id == id).getOrElse(throw new NoSuchElementException(s"no series $id"))

  def frequentOfSize(r: MiningResult, k: Int): Vector[FrequentPattern] = r.frequent.filter(_.k == k)

  /** What two builds of D_SEQ must agree on: m, the event dictionary and
    * every granule's (event id, start, end) triples.
    */
  def layout(db: SeqDB): (Int, Vector[Event], Vector[Vector[Int]]) =
    (db.m, db.allEvents, db.granules.toVector.map(_.toVector))

  /** A pattern with its support set and, aligned with it, its occurrence
    * instance tuples at each supporting granule.
    */
  final case class Pattern(key: PatternKey, support: Vector[Int], occs: Vector[Vector[Vector[Instance]]])

  def instance(h: HLH1, g: Int, i: Int): Instance = {
    val inst = h.granules(g - 1)
    Instance(h.candidates(inst(3 * i)), Interval(inst(3 * i + 1), inst(3 * i + 2)))
  }

  def pattern(h: HLH1, gm: GroupMined, p: MinedPattern): Pattern = {
    val k = gm.group.length
    val occs = p.support.indices.map { j =>
      (p.occOff(j) until p.occOff(j + 1)).map { t =>
        (0 until k).map(s => instance(h, p.support(j), p.occ(t * k + s))).toVector
      }.toVector
    }.toVector
    Pattern(h.key(gm.group, p.rels), p.support.toVector, occs)
  }

  def patterns(h: HLH1, gm: GroupMined): Vector[Pattern] = gm.patterns.toVector.map(pattern(h, gm, _))

  /** A level's groups (as events) and their patterns, in stored order. */
  def groups(h: HLH1, level: HLHk): mutable.LinkedHashMap[Vector[Event], Vector[Pattern]] =
    mutable.LinkedHashMap.from(level.groups.map(gm => gm.group.toVector.map(h.candidates) -> patterns(h, gm)))

  def patterns(h: HLH1, level: HLHk): Iterator[Pattern] = groups(h, level).valuesIterator.flatten

  /** Event e's instances in a row of D_SEQ. */
  def instancesOf(row: GranuleRow, e: Event): Vector[Instance] = row.instances.filter(_.event == e)

  /** Event e's instances at granule g (HLH_1's GH). */
  def instancesAt(h: HLH1, e: Event, g: Int): Vector[Instance] =
    h.candidates.indexOf(e) match {
      case -1 => Vector.empty
      case id =>
        val p = pattern(h, h.groups(id), h.groups(id).patterns(0))
        p.support.indexOf(g) match {
          case -1 => Vector.empty
          case j  => p.occs(j).map(_.head)
        }
    }
}
