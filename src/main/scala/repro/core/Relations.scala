package repro.core

/** The three temporal relations of Table III (Allen-derived). */
sealed abstract class Rel(val sigil: String, val ordinal: Int) extends Product with Serializable {
  override def toString: String = sigil
}

object Rel {
  /** `Ei -> Ej`: Ei ends (within tolerance) before Ej starts. */
  case object Follows extends Rel("->", 0)
  /** `Ei >= Ej`: Ei's interval covers Ej's (within tolerance). */
  case object Contains extends Rel(">=", 1)
  /** `Ei ol Ej`: Ei starts first, Ej outlives Ei, shared span >= d_o. */
  case object Overlaps extends Rel("ol", 2)

  val all: Vector[Rel] = Vector(Follows, Contains, Overlaps)

  implicit val ordering: Ordering[Rel] = Ordering.by(_.sigil)
}

/** Relation determination with the tolerance buffer ε and minimal overlap
  * duration d_o (Table III, Property 1).
  *
  * The paper's `± ε` endpoints are resolved into one total, mutually
  * exclusive decision procedure over the *chronologically first* instance
  * `a` and second instance `b` (first = smaller start; on a start tie the
  * longer, then the smaller event id — [[Relations.pairCode]]):
  *
  *   - Contains  iff  b.end <= a.end + ε          (b ends inside a, ε slack)
  *   - Overlaps  iff  not Contains and the shared span
  *                    `a.end - b.start + 1 >= max(1, d_o - ε)`
  *   - Follows   otherwise                        (negligible or no overlap)
  *
  * At ε = 0, d_o = 1 this is exactly Table III: Follows iff a ends strictly
  * before b starts, Contains iff a covers b, Overlaps iff they share >= d_o
  * granules and b ends after a. Mutual exclusivity and totality hold by
  * construction for any ε >= 0 (Property 1 / Lemma 3).
  */
object Relations {

  final case class RelCfg(epsilon: Int = 0, minOverlap: Int = 1) {
    require(epsilon >= 0, "epsilon must be >= 0")
    require(minOverlap >= 1, "d_o must be >= 1")
  }

  /** Relation between two intervals, oriented: `[aStart, aEnd]` must not
    * start after `[bStart, bEnd]`. Returns the relation holding from a to b.
    */
  def relate(aStart: Int, aEnd: Int, bStart: Int, bEnd: Int, cfg: RelCfg): Rel = {
    require(aStart <= bStart, s"relate() requires a to start first: [$aStart,$aEnd] vs [$bStart,$bEnd]")
    if (bEnd <= aEnd + cfg.epsilon) Rel.Contains
    else if (aEnd - bStart + 1 >= math.max(1, cfg.minOverlap - cfg.epsilon)) Rel.Overlaps
    else Rel.Follows
  }

  def relate(a: Interval, b: Interval, cfg: RelCfg = RelCfg()): Rel =
    relate(a.start, a.end, b.start, b.end, cfg)

  /** The [[PatternKey.decode]] code of slot pair (a, b), instances of
    * `inst` (an [[HLH1.granules]] row) with a's event id <= b's: the
    * relation from the one that starts first (on a start tie the longer,
    * then a), flagged if that is a or both are one event. Both miners code
    * every slot pair with it.
    */
  private[repro] def pairCode(inst: Array[Int], a: Int, b: Int, cfg: RelCfg): Int = {
    val aS = inst(3 * a + 1); val aE = inst(3 * a + 2)
    val bS = inst(3 * b + 1); val bE = inst(3 * b + 2)
    val aFirst = aS < bS || aS == bS && aE >= bE
    val rel = if (aFirst) relate(aS, aE, bS, bE, cfg) else relate(bS, bE, aS, aE, cfg)
    2 * rel.ordinal + (if (aFirst || inst(3 * a) == inst(3 * b)) 1 else 0)
  }
}
