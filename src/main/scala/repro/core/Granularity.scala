package repro.core

/** Time granularity arithmetic (Defs. 3.1–3.5).
  *
  * The time domain is the 1-based positions `1..n` of the finest granularity
  * G. A coarser granularity H with `G <=_m H` folds `m` adjacent fine
  * granules into one coarse granule; positions are again 1-based.
  */
object Granularity {

  /** Number of coarse granules produced from `fineLength` fine granules
    * (a trailing partial granule counts — Def. 3.2 partitions completely).
    */
  def coarseLength(fineLength: Int, m: Int): Int = {
    require(fineLength >= 0 && m >= 1)
    ((fineLength.toLong + m - 1) / m).toInt
  }
}
