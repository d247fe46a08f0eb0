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
    * `add(start, end, code)` says that fine positions `start..end` hold the
    * symbol coded `code` (>= 0). The runs must tile positions `1, 2, ...`;
    * a gap, an overlap or another first position throws, naming the series
    * and position. Neighbouring runs of one code merge, and each merged run
    * is cut at the coarse granules' boundaries (Def. 3.3) into instances
    * (Def. 3.12), a trailing partial granule included, which go with their
    * granule and code to `emit` in position order.
    */
  private final class RunEncoder(series: String, m: Int, emit: SeqDB.Sink) {
    require(m >= 1, "granularity factor must be >= 1")
    private var next = 1 // the first position not yet covered
    private var runStart = 0
    private var runCode = -1

    def add(start: Int, end: Int, code: Int): Unit = {
      if (start != next) throw new IllegalArgumentException(
        if (next == 1) s"positions of series $series start at $start, not 1"
        else if (start > next) s"missing value at series $series, position $next"
        else s"repeated value at series $series, position $start")
      if (code != runCode) { flush(); runStart = start; runCode = code }
      next = end + 1
    }

    /** Emit the pending run; called once more after the last `add`. */
    def flush(): Unit = if (runCode >= 0) {
      var lo = runStart
      while (lo < next) {
        val g = (lo - 1) / m + 1
        val hi = math.min(next - 1, g * m)
        emit(g, runCode, lo, hi)
        lo = hi + 1
      }
    }
  }

  /** Encode one series from its runs `(start, end, symbol)` given in any
    * order and possibly in fragments: sorted by start, they go through the
    * run encoder, so the instances `(granule, symbol, start, end)` equal
    * those of one ordered pass.
    */
  def encode(series: String, runs: Seq[(Int, Int, String)], m: Int)(emit: (Int, String, Int, Int) => Unit): Unit = {
    val symbols = runs.map(_._3).distinct
    val code = symbols.zipWithIndex.toMap
    val enc = new RunEncoder(series, m, (g, c, start, end) => emit(g, symbols(c), start, end))
    for ((start, end, symbol) <- runs.sortBy(_._1)) enc.add(start, end, code(symbol))
    enc.flush()
  }

  /** Build D_SEQ from D_SYB with the m-finer sequence mapping g (Def. 3.13).
    * A trailing partial granule is kept (complete partitioning, Def. 3.2).
    * The event dictionary comes from each series' sorted alphabet before
    * any run is encoded, so the encoder emits event ids.
    */
  def build(syb: SymbolicDB, m: Int): SeqDB = {
    val events = syb.series.flatMap(s => s.alphabet.map(Event(s.id, _))).distinct.sorted
    val id = events.zipWithIndex.toMap
    SeqDB.assemble(m, events, Granularity.coarseLength(syb.length, m)) { sink =>
      for (s <- syb.series) {
        val ids = s.alphabet.map(a => id(Event(s.id, a))).toArray // the series' symbol code -> event id
        val enc = new RunEncoder(s.id, m, sink)
        var start = 1
        for (r <- s.ends.indices) { enc.add(start, s.ends(r), ids(s.codes(r))); start = s.ends(r) + 1 }
        enc.flush()
      }
    }
  }
}
