package repro.core

/** Theorem 1 (Sec. V-B): the lower bound on maxSeason(X1, Y1) that a
  * correlated series pair guarantees, and the correlation test (Def. 5.4).
  * A-STPM prunes with μ (Eq. 14, [[MutualInformation.muForEventPair]]) and
  * [[JointCounts.minNmi]] directly; the tests check μ against this bound.
  */
object Theorem1 {

  /** Theorem 1 lower bound on maxSeason(X1, Y1) (Eq. 6), via Lambert W0.
    * Returns None when the W argument falls below −1/e (bound undefined).
    */
  def maxSeasonLowerBound(lambda1: Double, lambda2: Double, mu: Double,
                          dseqSize: Int, minDensity: Int): Option[Double] = {
    val z = MutualInformation.log2(math.pow(lambda1, 1.0 - mu)) * math.log(2.0) / lambda2
    if (z < -1.0 / math.E) None
    else Some(lambda2 * dseqSize / minDensity.toDouble * math.exp(LambertW.w0(z)))
  }

  /** Correlation test (Def. 5.4): min of both NMI directions >= μ. */
  def correlated(x: SymbolicSeries, y: SymbolicSeries, mu: Double): Boolean =
    MutualInformation.joint(x, y).minNmi >= mu
}
