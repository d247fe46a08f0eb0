package repro.core

/** A temporal pattern (Def. 3.10) in canonical slot form.
  *
  * `events` is the pattern's k-event group in canonical (sorted) order —
  * the *slots*. `rels(p)` is the relation for the p-th slot pair, pairs
  * enumerated `(0,1), (0,2), (1,2), (0,3), (1,3), (2,3), ...` (all `(i,j)`
  * with `i < j`, ordered by `j` then `i`). This ordering makes extending a
  * (k−1)-pattern with a k-th event an *append* of the new pairs `(i, k−1)`,
  * mirroring the paper's iterative verification (Sec. IV-D 4.2.2).
  *
  * Relations are always oriented from the chronologically earlier instance
  * to the later one; `leftIsFirstSlot` records whether the earlier instance
  * occupied slot `i` (true) or slot `j` (false), so `A ->` `B` and
  * `B -> A` are distinct patterns as required.
  *
  * A 1-event pattern has a single slot and no relations.
  */
final case class PatternKey(events: Vector[Event], rels: Vector[(Rel, Boolean)]) {
  require(events.nonEmpty, "pattern must have at least one event")
  require(rels.size == events.size * (events.size - 1) / 2,
    s"expected ${events.size * (events.size - 1) / 2} relations, got ${rels.size}")

  def k: Int = events.size

  /** The paper's triple list `<(r12,E1,E2), ...>` rendered with oriented
    * operands; a single event renders as its key.
    */
  def render: String =
    if (k == 1) events.head.key
    else PatternKey.pairOrder(k).zip(rels).map { case ((i, j), (rel, leftIsI)) =>
      val (l, r) = if (leftIsI) (events(i), events(j)) else (events(j), events(i))
      s"(${l.key} ${rel.sigil} ${r.key})"
    }.mkString("<", ", ", ">")

  override def toString: String = render
}

object PatternKey {
  /** Slot-pair enumeration order shared by all pattern operations. */
  def pairOrder(k: Int): Vector[(Int, Int)] =
    (for { j <- 1 until k; i <- 0 until j } yield (i, j)).toVector

  def single(e: Event): PatternKey = PatternKey(Vector(e), Vector.empty)

  /** The key of `events` whose slot pairs carry the mining kernel's codes
    * `rels`: (relation, flag) as `2 * rel.ordinal + (1 if flag)`.
    */
  def decode(events: Vector[Event], rels: Array[Byte]): PatternKey =
    PatternKey(events, rels.iterator.map(c => (Rel.all(c >> 1), (c & 1) == 1)).toVector)

  implicit val ordering: Ordering[PatternKey] = Ordering.by(_.render)
}
