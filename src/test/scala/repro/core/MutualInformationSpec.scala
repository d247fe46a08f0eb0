package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import MutualInformation._
import Theorem1._

class MutualInformationSpec extends AnyFunSuite with PropSupport {

  private def s(id: String, syms: String*) = SymbolicSeries(id, syms.toVector)
  private val Tol = 1e-9

  /** p(x) per symbol: the row sums of X's joint counts with itself. */
  private def probs(x: SymbolicSeries): Map[String, Double] = {
    val t = joint(x, x)
    t.xSymbols.indices.map(i => t.xSymbols(i) -> t.ySymbols.indices.map(t.count(i, _)).sum.toDouble / t.n).toMap
  }

  test("entropy of a fair binary series is 1 bit (Eq. 2)") {
    val x = s("X", "0", "1", "0", "1")
    assert(math.abs(joint(x, x).hX - 1.0) < Tol)
  }

  test("entropy of a constant series is 0") {
    val x = s("X", "a", "a", "a")
    assert(joint(x, x).hX == 0.0)
  }

  test("entropy of a uniform 4-symbol series is 2 bits") {
    val x = s("X", "a", "b", "c", "d")
    assert(math.abs(joint(x, x).hX - 2.0) < Tol)
  }

  test("probs are empirical frequencies") {
    assert(probs(s("X", "1", "1", "0", "1")) == Map("1" -> 0.75, "0" -> 0.25))
  }

  test("joint probs over aligned positions") {
    val x = s("X", "1", "1", "0", "0")
    val y = s("Y", "1", "0", "1", "0")
    val t = joint(x, y)
    assert(t.xSymbols == Vector("0", "1") && t.ySymbols == Vector("0", "1"))
    assert(t.n == 4)
    for (i <- 0 to 1; j <- 0 to 1) assert(t.count(i, j) == 1, s"cell ($i, $j)")
  }

  test("MI of independent series is 0; of identical series is H (Eq. 4)") {
    val x = s("X", "1", "1", "0", "0")
    val indep = s("Y", "1", "0", "1", "0")
    assert(math.abs(joint(x, indep).mi) < Tol)
    assert(math.abs(joint(x, x).mi - joint(x, x).hX) < Tol)
  }

  test("chain rule: I(X;Y) = H(X) - H(X|Y) (Eqs. 3-4)") {
    val x = s("X", "1", "1", "0", "0", "1", "0")
    val y = s("Y", "1", "0", "0", "0", "1", "1")
    val t = joint(x, y)
    // H(X|Y) = -sum p(x, y) log2(p(x, y) / p(y)) over the non-empty cells (Eq. 3).
    def p(c: Long) = c.toDouble / t.n
    val hXgivenY = -(for (i <- t.xSymbols.indices; j <- t.ySymbols.indices if t.count(i, j) > 0) yield {
      val py = t.xSymbols.indices.map(t.count(_, j)).sum
      p(t.count(i, j)) * math.log(p(t.count(i, j)) / p(py)) / math.log(2)
    }).sum
    assert(math.abs(t.mi - (t.hX - hXgivenY)) < Tol)
  }

  test("NMI is in [0,1]; identical series give 1; constants give 0 (Eq. 5)") {
    val x = s("X", "1", "1", "0", "0")
    assert(math.abs(nmi(x, x) - 1.0) < Tol)
    assert(nmi(s("C", "a", "a", "a", "a"), x) == 0.0)
    val y = s("Y", "1", "0", "1", "0")
    val v = nmi(x, y)
    assert(v >= 0.0 && v <= 1.0)
    intercept[IllegalArgumentException](nmi(s("C", "a", "a", "a"), x))
    intercept[IllegalArgumentException](muForSeriesPair(s("C", "a", "a", "a"), x, 4, 1, 1))
  }

  test("NMI is asymmetric when entropies differ") {
    val x = s("X", "1", "1", "1", "0", "0", "0", "0", "0")
    val y = s("Y", "1", "1", "0", "0", "1", "1", "0", "0")
    val fwd = nmi(x, y); val bwd = nmi(y, x)
    // I is symmetric, the normalizers H(X) != H(Y) are not.
    val t = joint(x, y)
    assert(math.abs(t.mi - joint(y, x).mi) < Tol)
    assert(t.hX != t.hY)
    assert(math.abs(fwd - bwd) > 1e-12 || t.mi == 0.0)
  }

  test("property: 0 <= I(X;Y) <= min(H(X), H(Y))") {
    val gen = Gen.listOfN(40, Gen.oneOf("0", "1", "2")).map(_.toVector)
    checkProp(Prop.forAll(gen, gen) { (xs, ys) =>
      val x = SymbolicSeries("X", xs); val y = SymbolicSeries("Y", ys)
      val t = joint(x, y)
      t.mi >= -Tol && t.mi <= math.min(t.hX, t.hY) + Tol
    }, minTests = 50)
  }

  /** The joint counts, Eqs. 2, 4, 5 and 14 of `joint(xs, ys)` equal those
    * computed from string and string-pair frequencies over the positions.
    */
  private def matchesFrequencies(xs: Vector[String], ys: Vector[String],
                                 dseq: Int, minSeason: Int, minDensity: Int): Boolean = {
    val n = xs.size.toDouble
    def freqs[K](keys: Seq[K]): Map[K, Double] =
      keys.groupBy(identity).map { case (k, v) => k -> v.size / n }
    val px = freqs(xs); val py = freqs(ys); val pxy = freqs(xs.zip(ys))
    def h(p: Map[String, Double]) = -p.values.map(v => v * math.log(v) / math.log(2)).sum
    val i = pxy.map { case ((a, b), v) => v * math.log(v / (px(a) * py(b))) / math.log(2) }.sum
    def norm(hv: Double) = if (hv <= 0.0) 0.0 else math.max(0.0, i / hv)
    def dir(a: Map[String, Double], b: Map[String, Double]) =
      b.values.map(muForEventPair(a.values.min, _, dseq, minSeason, minDensity)).min
    val t = joint(SymbolicSeries("X", xs), SymbolicSeries("Y", ys))
    val cells = for (a <- t.xSymbols.indices; b <- t.ySymbols.indices)
      yield t.count(a, b) == math.round(pxy.getOrElse((t.xSymbols(a), t.ySymbols(b)), 0.0) * n)
    cells.forall(identity) &&
      math.abs(t.hX - h(px)) < 1e-12 && math.abs(t.hY - h(py)) < 1e-12 &&
      math.abs(t.mi - i) < 1e-12 &&
      math.abs(t.nmiXY - norm(h(px))) < 1e-12 && math.abs(t.nmiYX - norm(h(py))) < 1e-12 &&
      t.mu(dseq, minSeason, minDensity) == math.min(dir(px, py), dir(py, px))
  }

  /** Alphabets of 1-3 symbols drawn from a 4-symbol pool, so pairs include
    * constant series and symbols that only one series holds.
    */
  private val alphabets = Gen.choose(1, 3).flatMap(Gen.pick(_, Seq("a", "b", "c", "d"))).map(_.toVector)
  private val params = Gen.zip(Gen.choose(30, 2000), Gen.choose(1, 4), Gen.choose(1, 4))

  test("property: the joint-count kernel equals Eqs. 2, 4, 5 and 14 over string-pair frequencies") {
    def series(n: Int) = for {
      alphabet <- alphabets
      syms <- Gen.listOfN(n, Gen.oneOf(alphabet))
    } yield syms.toVector
    val pairs = Gen.choose(1, 30).flatMap(n => Gen.zip(series(n), series(n)))
    checkProp(Prop.forAllNoShrink(pairs, params) { case ((xs, ys), (dseq, minSeason, minDensity)) =>
      matchesFrequencies(xs, ys, dseq, minSeason, minDensity)
    }, minTests = 200)
  }

  test("property: the run merge equals string-pair frequencies on run-structured series") {
    // Runs of 1-50 positions over up to 2,000 positions; the run ends of
    // the two series fall independently, so the merge steps through every
    // kind of overlap, and a one-symbol alphabet gives a constant series.
    def series(n: Int) = for {
      alphabet <- alphabets
      seed <- Gen.long
    } yield {
      val rnd = new scala.util.Random(seed)
      Iterator.continually(Vector.fill(1 + rnd.nextInt(50))(alphabet(rnd.nextInt(alphabet.size))))
        .flatten.take(n).toVector
    }
    val pairs = Gen.choose(1, 2000).flatMap(n => Gen.zip(series(n), series(n)))
    checkProp(Prop.forAllNoShrink(pairs, params) { case ((xs, ys), (dseq, minSeason, minDensity)) =>
      matchesFrequencies(xs, ys, dseq, minSeason, minDensity)
    }, minTests = 200)
  }

  /** H(X), H(Y), μ and min NMI computed from the joint cells alone, as
    * the kernel computed them before the series carried their counts: the
    * marginals are the cells' row and column sums.
    */
  private def fromCells(t: JointCounts, dseq: Int, minSeason: Int, minDensity: Int): (Double, Double, Double, Double) = {
    val xCounts = Array.tabulate(t.xSymbols.size)(i => t.ySymbols.indices.map(t.count(i, _)).sum)
    val yCounts = Array.tabulate(t.ySymbols.size)(j => t.xSymbols.indices.map(t.count(_, j)).sum)
    val n = xCounts.sum
    def p(c: Long): Double = c / n.toDouble
    def lg(v: Double): Double = math.log(v) / math.log(2.0)
    def h(counts: Array[Long]): Double = -counts.map(c => p(c) * lg(p(c))).sum
    var i = 0.0
    for (a <- xCounts.indices; b <- yCounts.indices if t.count(a, b) > 0) {
      val pxy = p(t.count(a, b))
      i += pxy * lg(pxy / (p(xCounts(a)) * p(yCounts(b))))
    }
    def norm(hv: Double) = if (hv <= 0.0) 0.0 else math.max(0.0, i / hv)
    def dir(a: Array[Long], b: Array[Long]): Double = {
      val lambda1 = p(a.foldLeft(n)(math.min))
      b.foldLeft(Double.PositiveInfinity)((m, c) =>
        math.min(m, muForEventPair(lambda1, p(c), dseq, minSeason, minDensity)))
    }
    (h(xCounts), h(yCounts), math.min(dir(xCounts, yCounts), dir(yCounts, xCounts)),
      math.min(norm(h(xCounts)), norm(h(yCounts))))
  }

  test("property: the entropy screen never rejects a pair whose min NMI reaches μ; H, μ and NMI equal the cell-derived values") {
    // X has runs of 1-20 positions over an alphabet of 1-5 symbols. Y is
    // drawn the same way (independent), or equals X, or relabels X through
    // a random function of its symbols (then I = H(Y) exactly, and min NMI
    // sits on the screen's bound).
    val pool = Vector("a", "b", "c", "d", "e")
    def runs(rnd: scala.util.Random, n: Int, alphabet: Vector[String]) =
      Iterator.continually(Vector.fill(1 + rnd.nextInt(20))(alphabet(rnd.nextInt(alphabet.size))))
        .flatten.take(n).toVector
    def alphabet(rnd: scala.util.Random) = rnd.shuffle(pool).take(1 + rnd.nextInt(pool.size))
    val pairs = for {
      n <- Gen.choose(1, 400)
      kind <- Gen.oneOf("independent", "equal", "function")
      seed <- Gen.long
    } yield {
      val rnd = new scala.util.Random(seed)
      val xs = runs(rnd, n, alphabet(rnd))
      val ys = kind match {
        case "independent" => runs(rnd, n, alphabet(rnd))
        case "equal"       => xs
        case _             => val f = xs.distinct.map(_ -> pool(rnd.nextInt(pool.size))).toMap; xs.map(f)
      }
      (kind, xs, ys)
    }
    val params = Gen.zip(Gen.choose(30, 2000), Gen.choose(1, 4), Gen.choose(1, 4))
    var rejected = 0; var kept = 0; var onBound = 0
    checkProp(Prop.forAllNoShrink(pairs, params) { case ((kind, xs, ys), (dseq, minSeason, minDensity)) =>
      val x = SymbolicSeries("X", xs); val y = SymbolicSeries("Y", ys)
      val t = joint(x, y)
      val mu = muForSeriesPair(x, y, dseq, minSeason, minDensity)
      if (screened(x, y, mu)) rejected += 1 else kept += 1
      if (kind != "independent" && t.minNmi > 0.0) onBound += 1
      (t.hX, t.hY, mu, t.minNmi) == fromCells(t, dseq, minSeason, minDensity) &&
        (!screened(x, y, mu) || t.minNmi < mu) &&
        !screened(x, y, t.minNmi) &&
        t.minNmi <= entropyRatio(x, y) + 1e-12
    }, minTests = 500)
    assert(rejected > 0 && kept > 0 && onBound > 0, s"rejected $rejected, kept $kept, on the bound $onBound")
  }

  test("the entropy screen: a constant series bounds the ratio at 0, and X = Y at 1") {
    val x = s("X", "1", "1", "0", "0", "1", "0")
    val c = s("C", "a", "a", "a", "a", "a", "a")
    assert(x.entropy == 1.0 && c.entropy == 0.0)
    assert(entropyRatio(x, c) == 0.0 && entropyRatio(c, c) == 0.0 && entropyRatio(x, x) == 1.0)
    assert(screened(x, c, 1e-3) && !screened(x, c, 0.0) && !screened(x, c, -1.0))
    assert(!screened(x, x, 1.0) && screened(x, x, 1.0 + 1e-6))
  }

  test("a symbolic series round-trips through its runs: one run per symbol change, plus 1") {
    val rnd = new scala.util.Random(3)
    for (trial <- 1 to 200) {
      val n = 1 + rnd.nextInt(300)
      // Fresh string copies: equal runs are found by value, not only by reference.
      val v = Iterator.continually(Vector.fill(1 + rnd.nextInt(20))(rnd.nextInt(1 + trial % 4).toString))
        .flatten.take(n).map(new String(_)).toVector
      val x = SymbolicSeries("X", v)
      assert(Decode.symbols(x) == v, s"trial $trial")
      assert(Decode.runs(x).size == (1 until n).count(i => v(i) != v(i - 1)) + 1, s"trial $trial")
      assert(x.length == n && x.alphabet == v.distinct.sorted)
    }
    intercept[IllegalArgumentException](SymbolicSeries("E", Vector.empty))
  }

  test("muForEventPair: case split at rho = 1/e (Eq. 14)") {
    // Small rho → case 1: μ = 1 - λ2 / (e·ln2·log2(1/λ1)).
    val mu1 = muForEventPair(lambda1 = 0.25, lambda2 = 0.5,
      dseqSize = 10000, minSeason = 2, minDensity = 2)
    val expected1 = 1.0 - 0.5 / (math.E * math.log(2.0) * 2.0)
    assert(math.abs(mu1 - expected1) < 1e-12)
    // Large rho → case 2.
    val mu2 = muForEventPair(lambda1 = 0.25, lambda2 = 0.5,
      dseqSize = 100, minSeason = 10, minDensity = 10)
    val rho = 10.0 * 10 / (0.5 * 100)
    val expected2 = 1.0 - rho * 0.5 * (math.log(rho) / math.log(2)) /
      (math.log(2.0) * (math.log(0.25) / math.log(2)))
    assert(math.abs(mu2 - expected2) < 1e-12)
    assert(mu2 > 1.0) // impossible demand → pair pruned
  }

  test("muForEventPair: degenerate single-symbol series demands the impossible") {
    assert(muForEventPair(1.0, 0.5, 100, 2, 2).isPosInfinity)
  }

  test("muForSeriesPair takes the minimum over event pairs and directions") {
    val x = s("X", "1", "1", "0", "0", "1", "0")
    val y = s("Y", "1", "0", "0", "0", "1", "1")
    val mu = muForSeriesPair(x, y, dseqSize = 6, minSeason = 1, minDensity = 1)
    val candidates = for {
      (a, b) <- Seq((x, y), (y, x))
      l2 <- probs(b).values
    } yield muForEventPair(probs(a).values.min, l2, 6, 1, 1)
    assert(mu == candidates.min)
  }

  test("Theorem 1 bound is consistent with Corollary 1.1 (case 1)") {
    // If NMI >= μ with μ from Eq. 14 case 1, the bound must be >= minSeason.
    val l1 = 0.3; val l2 = 0.4; val dseq = 5000
    val minSeason = 3; val minDensity = 4
    val mu = muForEventPair(l1, l2, dseq, minSeason, minDensity)
    val rho = minSeason.toDouble * minDensity / (l2 * dseq)
    assert(rho <= 1.0 / math.E)
    val bound = maxSeasonLowerBound(l1, l2, mu, dseq, minDensity)
    assert(bound.isDefined)
    assert(bound.get >= minSeason - 1e-6,
      s"bound ${bound.get} < minSeason $minSeason")
  }

  test("Theorem 1 bound grows with μ; undefined past the W branch point") {
    val bounds = Vector(0.9, 0.95, 0.99).map(mu =>
      maxSeasonLowerBound(0.3, 0.4, mu, 1000, 3).get)
    assert(bounds == bounds.sorted)
    // Small μ pushes the W argument below -1/e — bound undefined.
    assert(maxSeasonLowerBound(0.3, 0.4, 0.5, 1000, 3).isEmpty)
  }

  test("correlated() applies Def. 5.4") {
    val x = s("X", "1", "1", "0", "0")
    assert(correlated(x, x, 0.99))
    val indep = s("Y", "1", "0", "1", "0")
    assert(!correlated(x, indep, 0.01))
  }

  test("symbolic DB alignment is enforced") {
    intercept[IllegalArgumentException](SymbolicDB(Vector(
      s("A", "1", "0"), s("B", "1"))))
    intercept[IllegalArgumentException](joint(s("A", "1", "0"), s("B", "1")))
  }
}
