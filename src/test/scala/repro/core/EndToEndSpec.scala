package repro.core

import repro.SparkSpec
import repro.data.SeasonalGen
import repro.exp.Experiments

/** Full-pipeline integration: raw values → Spark Phase 1 → distributed
  * mining, on a generated preset, cross-checked against the all-local path
  * at every stage.
  */
class EndToEndSpec extends SparkSpec {

  private lazy val spec = SeasonalGen.scaled("INF", nSeries = 6, nCoarse = 300)
  private lazy val raw = SeasonalGen.rawSeries(spec)
  private lazy val cuts = raw.map { case (id, _) => id -> SeasonalGen.Cuts }.toMap

  test("raw → symbolic → D_SEQ via Spark equals the local path") {
    val rawDf = SparkSTPM.rawDF(spark, raw)
    val symDf = SparkSTPM.symbolize(rawDf, cuts)
    val instDf = SparkSTPM.toInstances(symDf, spec.m)
    val sparkDb = SparkSTPM.collectSeqDB(instDf, spec.m)
    val (_, localDb) = SeasonalGen.dataset(spec)
    assert(Decode.layout(sparkDb) == Decode.layout(localDb))
  }

  test("distributed E-STPM on the full pipeline output finds the planted pattern") {
    val rawDf = SparkSTPM.rawDF(spark, raw)
    val instDf = SparkSTPM.toInstances(SparkSTPM.symbolize(rawDf, cuts), spec.m)
    val db = SparkSTPM.collectSeqDB(instDf, spec.m)
    val cfg = STPMConfig(Experiments.cfgOf(db.size, "INF", 0.4, 0.75, 4), maxK = 3)
    val res = SparkSTPM.mine(spark, db, cfg)
    val planted = PatternKey(
      Vector(Event("S000", "2"), Event("S001", "2")),
      Vector((Rel.Contains, true)))
    assert(res.keys.contains(planted),
      res.frequent.map(_.key.render).mkString(", "))
    assert(res.keys == STPM.mine(db, cfg).keys)
  }
}
