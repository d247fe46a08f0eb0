package repro

import repro.core.SparkSTPM
import repro.data.SeasonalGen

/** The paper's synthetic seasonal datasets as Spark sees them. */
class SynthDataSpec extends SparkSpec {

  test("seasonalSeries exposes the paper's dataset schema as a DataFrame") {
    val spec = SeasonalGen.sc()
    val df = SparkSTPM.rawDF(spark, SeasonalGen.rawSeries(spec))
    assert(df.columns.toSeq == Seq("series", "pos", "value"))
    assert(df.count() == spec.nSeries.toLong * spec.fineLength)
  }
}
