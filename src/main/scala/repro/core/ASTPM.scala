package repro.core

/** Approximate STPM using mutual information (Sec. V, Algorithm 2).
  *
  * From the symbolic database, every series pair's NMI (both directions) is
  * compared against the μ threshold derived from minSeason/minDensity
  * (Eq. 14); only *correlated* series survive into single-event mining, and
  * at every level k >= 2 a group holds only events of correlated series
  * pairs (or of one series). Levels k >= 3 run E-STPM's steps on top of the
  * approximate HLH2, so the output does not depend on the transitivity
  * flag — trading a small recall loss for large pruning.
  */
object ASTPM {

  /** A-STPM outcome: the mining result plus what the MI stage pruned. */
  final case class Result(
      mining: MiningResult,
      correlatedPairs: Set[(String, String)],
      allSeries: Vector[String],
      keptSeries: Set[String],
      nmiMillis: Double) {

    def prunedSeries: Vector[String] = allSeries.filterNot(keptSeries.contains)
    def prunedSeriesPct: Double =
      100.0 * prunedSeries.size / math.max(1, allSeries.size)

    /** Percentage of distinct events removed from the search space. */
    def prunedEventsPct(db: SeqDB): Double = {
      val total = db.allEvents.size
      val pruned = db.allEvents.count(e => !keptSeries.contains(e.series))
      100.0 * pruned / math.max(1, total)
    }
  }

  /** Run Algorithm 2. `syb` and `db` must come from the same data (the
    * same symbolization and sequence mapping).
    */
  def mine(syb: SymbolicDB, db: SeqDB, cfg: STPMConfig): Result = {
    val t0 = System.nanoTime()
    val ids = syb.ids
    val correlated = Set.newBuilder[(String, String)]
    for (i <- ids.indices; j <- (i + 1) until ids.size) {
      val t = MutualInformation.joint(syb.series(i), syb.series(j))
      if (t.minNmi >= t.mu(db.size, cfg.season.minSeason, cfg.season.minDensity)) correlated += ((ids(i), ids(j)))
    }
    val nmiMillis = (System.nanoTime() - t0) / 1e6
    val corr = correlated.result()
    val kept: Set[String] = corr.flatMap(p => Set(p._1, p._2))
    val mining = STPM.mineFiltered(db, cfg, seriesFilter = Some(kept.contains),
      pairFilter = Some((a, b) => a == b || corr.contains((a, b)) || corr.contains((b, a))))
    Result(mining, corr, ids, kept, nmiMillis)
  }

  /** Accuracy of A-STPM w.r.t. the exact result (Sec. VI-C4): the
    * percentage of E-STPM's frequent patterns that A-STPM also found.
    */
  def accuracy(approx: MiningResult, exact: MiningResult): Double = {
    val e = exact.keys
    if (e.isEmpty) 100.0
    else 100.0 * approx.keys.count(e.contains) / e.size
  }
}
