package stpmbench

import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.SeasonalGen
import repro.exp.Experiments

/** Raw numeric series generated from a spec: all a program op receives. */
final case class Input(spec: SeasonalGen.Spec, raw: Vector[(String, Vector[Double])]) {
  def positions: Int = raw.head._2.size
}

object Input {
  def of(spec: SeasonalGen.Spec): Input = Input(spec, SeasonalGen.rawSeries(spec))
}

/** What one op hands back: the sequence database it built and the patterns
  * it mined, plus A-STPM's MI outcome and the number of aligned symbol
  * positions it compared, where there is one.
  */
final case class OpResult(db: SeqDB, mining: MiningResult,
                          astpm: Option[ASTPM.Result] = None, miPositions: Long = 0L)

/** One workload. `op` is the unit the benchmark times: raw series in,
  * pattern set out. `tracedOp` does the same work through
  * the layers' public functions with a span around each, and returns the
  * op's per-layer sample (metric name -> value).
  */
trait Workload {
  def allThreads: Boolean
  /** Unrecorded work run once in set-up, before the warm-up ops. */
  def warmUp(): Unit = ()
  /** Recorded ops run in set-up before any op may be timed. */
  def warmupOps: Int = 1
  def op(): OpResult
  def tracedOp(t: Tracer): (OpResult, mutable.LinkedHashMap[String, Double])
  /** Digest the op's output must have, when set-up derived one. */
  def expectedDigest: Option[String] = None
}

object Workloads {
  val Names: Vector[String] = Vector("estpm-re", "astpm-inf48", "spark-re")

  /** Season thresholds shared by all workloads (maxPeriod 0.4 %,
    * minDensity 0.75 %, minSeason 8).
    */
  def config(db: SeqDB, preset: String, maxK: Int): STPMConfig =
    STPMConfig(Experiments.cfgOf(db.size, preset, 0.4, 0.75, 8), maxK = maxK)

  /** Local Phase 1: threshold symbolization, then the sequence mapping. */
  def phase1(in: Input): (SymbolicDB, SeqDB) = {
    val syb = SymbolicDB(in.raw.map { case (id, vs) =>
      SymbolicSeries(id, Symbolizer.thresholds(vs, SeasonalGen.Cuts))
    })
    (syb, SequenceDB.build(syb, in.spec.m))
  }

  def create(name: String, seed: Long, spark: => SparkSession): Workload = name match {
    case "estpm-re"    => new EstpmRe(seed)
    case "astpm-inf48" => new AstpmInf48(seed)
    case "spark-re"    => new SparkRe(seed, spark)
    case other => throw new IllegalArgumentException(
      s"unknown workload $other (known: ${Names.mkString(", ")})")
  }

  private def put(m: mutable.LinkedHashMap[String, Double], layer: String, c: Cost): Unit = {
    m(s"$layer.s") = c.s
    m(s"$layer.alloc_mb") = c.allocMb
    m(s"$layer.gc_s") = c.gcS
  }

  private def hlh1Counters(m: mutable.LinkedHashMap[String, Double], h: HLH1, db: SeqDB): Unit = {
    m("hlh1.candidate_events") = h.eh.size.toDouble
    m("hlh1.total_events") = db.allEvents.size.toDouble
    m("hlh1.entries") = h.entryCount.toDouble
  }

  /** E-STPM on the RE analog, maxK 3.
    * Its warm-up mines the same spec generated with 12 series instead of
    * 21, once, in place of a full op: that compiles the level-3 code in
    * about half the time of a cold full op, which leaves time for two
    * timed ops.
    */
  final class EstpmRe(seed: Long) extends Workload {
    val allThreads = false
    private val full = Input.of(SeasonalGen.re(seed))
    private val part = Input.of(SeasonalGen.re(seed).copy(nSeries = 12))

    override def warmUp(): Unit = {
      val (_, db) = phase1(part)
      STPM.mine(db, config(db, "RE", 3))
    }
    override def warmupOps: Int = 0

    def op(): OpResult = {
      val (_, db) = phase1(full)
      OpResult(db, STPM.mine(db, config(db, "RE", 3)))
    }

    /** The level split: mine at maxK 1, 2 and 3 on the same database;
      * level k costs the maxK k call minus the maxK k-1 call.
      */
    def tracedOp(t: Tracer): (OpResult, mutable.LinkedHashMap[String, Double]) = {
      val m = mutable.LinkedHashMap.empty[String, Double]
      val (db, h, r1, r2, r3) = t.span("op") {
        val (_, db) = t.span("phase1")(phase1(full))
        val cfg = config(db, "RE", 3)
        val h = t.span("hlh1")(HLH1.build(db, cfg.season, cfg.apriori))
        val r1 = t.span("stpm.mine.k1")(STPM.mine(db, cfg.copy(maxK = 1)))
        val r2 = t.span("stpm.mine.k2")(STPM.mine(db, cfg.copy(maxK = 2)))
        val r3 = t.span("stpm.mine.k3")(STPM.mine(db, cfg))
        (db, h, r1, r2, r3)
      }
      val phase = t.cost("phase1")
      val mine3 = t.cost("stpm.mine.k3")
      val k3 = mine3 - t.cost("stpm.mine.k2")
      put(m, "phase1", phase)
      put(m, "hlh1", t.cost("hlh1"))
      put(m, "stpm.k1", t.cost("stpm.mine.k1") - t.cost("hlh1"))
      put(m, "stpm.k2", t.cost("stpm.mine.k2") - t.cost("stpm.mine.k1"))
      put(m, "stpm.k3", k3)
      hlh1Counters(m, h, db)
      val checks3 = r3.stats.relationChecks - r2.stats.relationChecks
      val occ3 = r3.stats.occurrences - r2.stats.occurrences
      m("stpm.k2.rel_checks") = (r2.stats.relationChecks - r1.stats.relationChecks).toDouble
      m("stpm.k3.rel_checks") = checks3.toDouble
      m("stpm.k3.occurrences") = occ3.toDouble
      m("stpm.k3.kept_ratio") = if (checks3 == 0) 0.0 else occ3.toDouble / checks3
      m("trace.op_equivalent_s") = phase.s + mine3.s
      m("trace.main_share") = k3.s / (phase.s + mine3.s)
      (OpResult(db, r3), m)
    }
  }

  /** A-STPM on 48 scaled INF series over 800 granules, maxK 3. */
  final class AstpmInf48(seed: Long) extends Workload {
    val allThreads = false
    private val full = Input.of(SeasonalGen.scaled("INF", 48, 800, seed))

    def op(): OpResult = {
      val (syb, db) = phase1(full)
      val res = ASTPM.mine(syb, db, config(db, "INF", 3))
      OpResult(db, res.mining, Some(res), syb.length.toLong)
    }

    /** The MI stage is replayed through `MutualInformation` over the pairs
      * A-STPM visits; the filtered mining is `ASTPM.mine` minus the MI time
      * A-STPM itself reports.
      */
    def tracedOp(t: Tracer): (OpResult, mutable.LinkedHashMap[String, Double]) = {
      val m = mutable.LinkedHashMap.empty[String, Double]
      var nmiNs = 0L
      var muNs = 0L
      var correlated = 0
      val (db, h, res) = t.span("op") {
        val (syb, db) = t.span("phase1")(phase1(full))
        val cfg = config(db, "INF", 3)
        val h = t.span("hlh1")(HLH1.build(db, cfg.season, cfg.apriori))
        t.span("mi") {
          val ss = syb.series
          for (i <- ss.indices; j <- (i + 1) until ss.size) {
            val t0 = System.nanoTime()
            val nmi = math.min(MutualInformation.nmi(ss(i), ss(j)), MutualInformation.nmi(ss(j), ss(i)))
            val t1 = System.nanoTime()
            val mu = MutualInformation.muForSeriesPair(ss(i), ss(j), db.size,
              cfg.season.minSeason, cfg.season.minDensity)
            muNs += System.nanoTime() - t1
            nmiNs += t1 - t0
            if (nmi >= mu) correlated += 1
          }
        }
        val res = t.span("astpm.mine")(ASTPM.mine(syb, db, cfg))
        (db, h, res)
      }
      if (correlated != res.correlatedPairs.size)
        throw new IllegalStateException(
          s"replayed MI found $correlated correlated pairs, A-STPM ${res.correlatedPairs.size}")
      val phase = t.cost("phase1")
      val mi = t.cost("mi")
      val astpmMine = t.cost("astpm.mine")
      val mining = astpmMine - Cost(res.nmiMillis / 1000.0, mi.allocMb, mi.gcS)
      put(m, "phase1", phase)
      put(m, "hlh1", t.cost("hlh1"))
      put(m, "mi", mi)
      m("mi.nmi.s") = nmiNs / 1e9
      m("mi.mu.s") = muNs / 1e9
      put(m, "astpm.mining", mining)
      hlh1Counters(m, h, db)
      m("trace.op_equivalent_s") = phase.s + astpmMine.s
      m("trace.main_share") = mi.s / (phase.s + mi.s + mining.s)
      (OpResult(db, res.mining, Some(res), full.positions.toLong), m)
    }
  }

  object SparkRe {
    def spec(seed: Long): SeasonalGen.Spec = SeasonalGen.re(seed).copy(nSeries = 12)
  }

  /** The Spark path on the RE analog generated with 12 series instead of
    * 21 (its 9 planted series and 3 noise series): Catalyst Phase 1, then
    * the level-2 fan-out
    * of `SparkSTPM.mine` at maxK 2. Set-up also mines the same input
    * locally at maxK 2; every op must match that digest.
    */
  final class SparkRe(seed: Long, spark: SparkSession) extends Workload {
    val allThreads = true
    private val full = Input.of(SparkRe.spec(seed))
    private val cuts: Map[String, Vector[Double]] = full.raw.map(_._1 -> SeasonalGen.Cuts).toMap
    private val fullDF = SparkSTPM.rawDF(spark, full.raw)
    private lazy val meter: SparkMeter = {
      val l = new SparkMeter(spark.sparkContext)
      spark.sparkContext.addSparkListener(l)
      l
    }

    override val expectedDigest: Option[String] = {
      val (_, db) = phase1(full)
      Some(Digest.of(STPM.mine(db, config(db, "RE", 2)).frequent))
    }

    private def sparkPhase1(): SeqDB = {
      val m = full.spec.m
      SparkSTPM.collectSeqDB(SparkSTPM.toInstances(SparkSTPM.symbolize(fullDF, cuts), m), m)
    }

    def op(): OpResult = {
      val db = sparkPhase1()
      OpResult(db, SparkSTPM.mine(spark, db, config(db, "RE", 2)))
    }

    def tracedOp(t: Tracer): (OpResult, mutable.LinkedHashMap[String, Double]) = {
      val m = mutable.LinkedHashMap.empty[String, Double]
      val before = meter.snapshot()
      val (db, r) = t.span("op") {
        val db = t.span("spark.phase1")(sparkPhase1())
        val r = t.span("spark.mine")(SparkSTPM.mine(spark, db, config(db, "RE", 2)))
        (db, r)
      }
      val d = meter.snapshot() - before
      val phase = t.cost("spark.phase1")
      val mine = t.cost("spark.mine")
      put(m, "spark.phase1", phase)
      put(m, "spark.mine", mine)
      m("spark.tasks") = d.tasks.toDouble
      m("spark.executor_run_s") = d.runMs / 1000.0
      m("spark.executor_cpu_s") = d.cpuNs / 1e9
      m("spark.executor_gc_s") = d.gcMs / 1000.0
      m("spark.result_mb") = d.resultBytes / 1048576.0
      m("spark.shuffle_mb") = d.shuffleBytes / 1048576.0
      m("spark.broadcast_mb") = d.broadcastBytes / 1048576.0
      m("stpm.k2.rel_checks") = r.stats.relationChecks.toDouble
      val op = t.cost("op")
      m("trace.op_equivalent_s") = op.s
      m("trace.main_share") = (phase.s + mine.s) / op.s
      (OpResult(db, r), m)
    }
  }
}
