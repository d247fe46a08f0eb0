package repro.core

/** Phase-1 step 2 (Defs. 3.11–3.13): fold a symbolic database of the finest
  * granularity G into the temporal sequence database D_SEQ of granularity H
  * with `G <=_m H`, run-length-encoding consecutive identical symbols into
  * event instances. Interval endpoints are *fine* granule positions, as in
  * the paper's Table IV.
  *
  * One run-length encoder serves both paths: the local
  * [[SequenceDB.build]] feeds it each series' runs in order, and Spark's
  * [[SparkSTPM.toInstances]] hands each series' shuffled runs to
  * [[SequenceDB.encode]].
  */
object SequenceDB {

  /** The run-length encoder of one series, fed its runs in position order:
    * `add(start, end, symbol)` says that fine positions `start..end` hold
    * `symbol`. The runs must tile positions `1, 2, ...`; a gap, an
    * overlap or another first position throws, naming the series and
    * position. Neighbouring runs of one symbol merge, and each merged run
    * is cut at the coarse granules' boundaries (Def. 3.3) into instances
    * (Def. 3.12), a trailing partial granule included, which go with their
    * granule to `emit` in position order.
    */
  private final class RunEncoder(series: String, m: Int, emit: (Int, Instance) => Unit) {
    require(m >= 1, "granularity factor must be >= 1")
    private var next = 1 // the first position not yet covered
    private var runStart = 0
    private var runSymbol: String = null

    def add(start: Int, end: Int, symbol: String): Unit = {
      if (start != next) throw new IllegalArgumentException(
        if (next == 1) s"positions of series $series start at $start, not 1"
        else if (start > next) s"missing value at series $series, position $next"
        else s"repeated value at series $series, position $start")
      if (symbol != runSymbol) { flush(); runStart = start; runSymbol = symbol }
      next = end + 1
    }

    /** Emit the pending run; called once more after the last `add`. */
    def flush(): Unit = if (runSymbol != null) {
      val event = Event(series, runSymbol)
      var lo = runStart
      while (lo < next) {
        val g = (lo - 1) / m + 1
        val hi = math.min(next - 1, g * m)
        emit(g, Instance(event, Interval(lo, hi)))
        lo = hi + 1
      }
    }
  }

  /** Encode one series from its runs `(start, end, symbol)` given in any
    * order and possibly in fragments: sorted by start, they go through the
    * run encoder, so the instances equal those of one ordered pass.
    */
  def encode(series: String, runs: Seq[(Int, Int, String)], m: Int)(emit: (Int, Instance) => Unit): Unit = {
    val enc = new RunEncoder(series, m, emit)
    for ((start, end, symbol) <- runs.sortBy(_._1)) enc.add(start, end, symbol)
    enc.flush()
  }

  /** Build D_SEQ from D_SYB with the m-finer sequence mapping g (Def. 3.13).
    * A trailing partial granule is kept (complete partitioning, Def. 3.2).
    */
  def build(syb: SymbolicDB, m: Int): SeqDB = {
    require(m >= 1, "granularity factor must be >= 1")
    val granules = Array.fill(Granularity.coarseLength(syb.length, m))(Vector.newBuilder[Instance])
    for (s <- syb.series) {
      val enc = new RunEncoder(s.id, m, (g, i) => granules(g - 1) += i)
      s.foreachRun(enc.add)
      enc.flush()
    }
    SeqDB(m, granules.iterator.zipWithIndex.map { case (b, i) =>
      GranuleRow(i + 1, b.result().sorted(Instance.ordering))
    }.toVector)
  }
}
