package repro.core

import repro.core.Relations.RelCfg

/** Table III's orientation over [[Instance]] objects, and the key of one
  * occurrence built from it: independent references for the `Int`-coded
  * [[Relations.pairCode]] and the miners' keys, which share no code with
  * them.
  */
object OccurrenceKey {

  /** Relation-orientation order: start ascending, then end *descending*,
    * then event. On a start tie the longer (containing) instance is the
    * relation's left operand — matching the paper's Table IV examples
    * (e.g. M:1 ≽ N:1 at H1 where both instances start at G1).
    */
  val orientationOrdering: Ordering[Instance] =
    Ordering.by((i: Instance) => (i.start, -i.end, i.event.series, i.event.symbol))

  /** Orient two instances by [[orientationOrdering]] and relate them.
    * Returns (first, second, relation).
    */
  def orientAndRelate(x: Instance, y: Instance, cfg: RelCfg = RelCfg()): (Instance, Instance, Rel) = {
    val (a, b) = if (orientationOrdering.lteq(x, y)) (x, y) else (y, x)
    (a, b, Relations.relate(a.interval, b.interval, cfg))
  }

  /** Pattern of one occurrence: `tuple` holds one instance per slot of the
    * canonical `events` vector (instances of a duplicated event in
    * ascending order). Same-event slot pairs carry flag = true.
    */
  def ofOccurrence(events: Vector[Event], tuple: Vector[Instance], rel: RelCfg): PatternKey = {
    require(events.size == tuple.size, "tuple must align with slots")
    require(events.zip(tuple).forall { case (e, i) => i.event == e },
      "instances must match their slots")
    val rels = PatternKey.pairOrder(events.size).map { case (i, j) =>
      val (first, _, r) = orientAndRelate(tuple(i), tuple(j), rel)
      (r, events(i) == events(j) || first == tuple(i))
    }
    PatternKey(events, rels)
  }
}
