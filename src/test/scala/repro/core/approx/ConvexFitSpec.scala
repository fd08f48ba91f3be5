package repro.core.approx

import java.util.Random
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import repro.SparkSpec
import repro.core.neats.NeaTS
import repro.data.TimeSeries

/** Independent slow reference: Sutherland-Hodgman polygon clipping of the
  * feasible (m, b) region, used to cross-validate the incremental
  * envelope/interval algorithm in FeasibleRegion.
  */
object SlowFeasibility {
  type Pt = (Double, Double)

  private def clip(poly: Seq[Pt], a: Double, b: Double, c: Double): Seq[Pt] = {
    // keep points with a*x + b*y <= c
    if (poly.isEmpty) return poly
    val out = scala.collection.mutable.ArrayBuffer[Pt]()
    val n = poly.length
    for (i <- 0 until n) {
      val p = poly(i)
      val q = poly((i + 1) % n)
      val pin = a * p._1 + b * p._2 <= c + 1e-9
      val qin = a * q._1 + b * q._2 <= c + 1e-9
      if (pin) out += p
      if (pin != qin) {
        val t = (c - a * p._1 - b * p._2) / (a * (q._1 - p._1) + b * (q._2 - p._2))
        out += ((p._1 + t * (q._1 - p._1), p._2 + t * (q._2 - p._2)))
      }
    }
    out.toSeq
  }

  /** Longest fragment from `start` for a kind/eps via explicit clipping. */
  def longestFragment(ys: Array[Long], shift: Long, start: Int,
                      kind: FunctionKind, eps: Long): Int = {
    // Keep the box small: vertices at huge coordinates destroy the clipping
    // precision (the box only needs to contain the data-scale feasible region).
    val big = 1e5
    var poly: Seq[Pt] = Seq((-big, -big), (big, -big), (big, big), (-big, big))
    val x0 = (start + 1).toDouble
    val y0 = (ys(start) + shift).toDouble
    val out = new Array[Double](3)
    var k = start
    while (k < ys.length) {
      kind.constraintInto((k + 1).toDouble, (ys(k) + shift).toDouble, eps.toDouble, x0, y0, out) match {
        case FunctionKind.VacuousPoint => k += 1
        case FunctionKind.OutOfDomainPoint => return k
        case _ =>
          val (t, a, w) = (out(0), out(1), out(2))
          // alpha <= t*m + b <= omega  ->  -t*m - b <= -alpha  and  t*m + b <= omega
          val p1 = clip(clip(poly, -t, -1.0, -a), t, 1.0, w)
          if (p1.isEmpty) return k
          poly = p1
          k += 1
      }
    }
    k
  }
}

class ConvexFitSpec extends SparkSpec {

  /** The point loop through each kind's own (virtual) `constraintInto`,
    * without `fitEnd`'s dispatch by id: the end `fitEnd` must return.
    */
  private def referenceEnd(ys: Array[Long], shift: Long, start: Int, kind: FunctionKind, eps: Long): Int = {
    val region = new FeasibleRegion
    val (x0, y0) = ((start + 1).toDouble, (ys(start) + shift).toDouble)
    val out = new Array[Double](3)
    var k = start
    while (k < ys.length) {
      kind.constraintInto((k + 1).toDouble, (ys(k) + shift).toDouble, eps.toDouble, x0, y0, out) match {
        case FunctionKind.OutOfDomainPoint => return k
        case FunctionKind.Constrained if !region.addPoint(out(0), out(1), out(2)) => return k
        case _ => k += 1
      }
    }
    k
  }

  test("fitEnd agrees with longestFragment at random starts of analogue windows, plain and lifted by 2^30") {
    // Lifted windows are fitted with no shift, at 2^30, where rounding makes
    // the marginal acceptances that plain windows rarely reach.
    val windows = for {
      name <- Gen.oneOf(TimeSeries.names)
      from <- Gen.choose(0, 2000)
      n <- Gen.choose(1, 1500)
      lifted <- Gen.oneOf(false, true)
    } yield {
      val ys = TimeSeries.dataset(name, from + n).longs.drop(from)
      if (lifted) (s"$name+2^30", ys.map(_ + (1L << 30)), 0L)
      else (name, ys, NeaTS.shiftFor(ys, NeaTS.epsGrid(ys).max))
    }
    val cases = for { w <- windows; starts <- Gen.listOfN(4, Gen.choose(0, w._2.length - 1)) } yield (w, starts)
    val prop = Prop.forAllNoShrink(cases) { case ((name, ys, shift), starts) =>
      val region = new FeasibleRegion
      val wrong = for {
        kind <- FunctionKind.all; eps <- NeaTS.epsGrid(ys); start <- starts
        end = ConvexFit.fitEnd(ys, shift, start, kind, eps, region)
        want = referenceEnd(ys, shift, start, kind, eps)
        fit = ConvexFit.longestFragment(ys, shift, start, kind, eps, region)
        if end != want || fit.end != end
      } yield s"$kind eps=$eps from $start: fitEnd $end, reference $want, longestFragment ${fit.end}"
      Prop(wrong.isEmpty) :| s"$name n=${ys.length}: ${wrong.take(3).mkString("; ")}"
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(100).withInitialSeed(Seed(20261020L))
    val result = Test.check(params, prop)
    assert(result.passed, Pretty.pretty(Pretty.prettyTestRes(result), Pretty.defaultParams))
  }

  test("an exponential start with y - eps <= 0 ends where it starts") {
    val ys = Array[Long](10, 9, 8, 2, 10, 12)
    assert(ConvexFit.fitEnd(ys, 0, 3, ExponentialKind, 2, new FeasibleRegion) === 3)
    assert(ConvexFit.longestFragment(ys, 0, 3, ExponentialKind, 2, new FeasibleRegion) ===
      Fit(3, 3, ExponentialKind, 0, 0, 0))
  }

  private def checkValid(ys: Array[Long], shift: Long, kind: FunctionKind, eps: Long,
                         start: Int = 0): Fit = {
    val fit = ConvexFit.longestFragment(ys, shift, start, kind, eps, new FeasibleRegion)
    assert(fit.end > start, s"empty fragment for $kind eps=$eps")
    (fit.start until fit.end).foreach { i =>
      val err = math.abs(fit.eval(i) - (ys(i) + shift).toDouble)
      assert(err <= eps + 1e-6, s"$kind eps=$eps point $i err=$err")
    }
    fit
  }

  test("linear kind recovers exact lines in one fragment") {
    val ys = Array.tabulate(500)(i => 3L * (i + 1) + 7)
    val fit = checkValid(ys, 0, LinearKind, 0)
    assert(fit.end === 500)
  }

  test("linear kind with eps tolerates bounded noise") {
    val rng = new Random(11)
    val ys = Array.tabulate(500)(i => 3L * (i + 1) + 7 + rng.nextInt(5) - 2)
    val fit = checkValid(ys, 0, LinearKind, 2)
    assert(fit.end === 500, "noise within eps must not break the fragment")
  }

  test("radical kind recovers sqrt-shaped data") {
    val ys = Array.tabulate(400)(i => math.round(50.0 * math.sqrt(i + 1.0) + 20.0))
    val fit = checkValid(ys, 0, RadicalKind, 1)
    assert(fit.end === 400)
  }

  test("exponential kind recovers exponential data") {
    val ys = Array.tabulate(300)(i => math.round(100.0 * math.exp(0.01 * (i + 1))))
    val fit = checkValid(ys, 0, ExponentialKind, 2)
    assert(fit.end === 300)
  }

  test("quadratic kind recovers parabola through its first point") {
    val ys = Array.tabulate(400)(i => { val x = (i + 1).toDouble; math.round(0.05 * x * x - 3 * x + 100) })
    val fit = checkValid(ys, 0, QuadraticKind, 1)
    assert(fit.end === 400)
  }

  test("fragment maximality: the next point is infeasible (linear)") {
    val rng = new Random(12)
    for (trial <- 0 until 30) {
      val ys = Array.fill(80)(rng.nextInt(100).toLong)
      val eps = 1L + rng.nextInt(5)
      val fit = ConvexFit.longestFragment(ys, 0, 0, LinearKind, eps, new FeasibleRegion)
      if (fit.end < ys.length) {
        val slow = SlowFeasibility.longestFragment(ys, 0, 0, LinearKind, eps)
        assert(fit.end === slow, s"trial $trial eps=$eps: fast=${fit.end} slow=$slow")
      }
    }
  }

  test("cross-validation against polygon clipping on random walks, all kinds") {
    val rng = new Random(13)
    for (kind <- FunctionKind.all; trial <- 0 until 10) {
      var v = 500L
      val ys = Array.fill(120) { v += rng.nextInt(21) - 10; v }
      val eps = Seq(1L, 2L, 8L)(trial % 3)
      val shift = math.max(0L, eps + 1 - ys.min)
      val fast = ConvexFit.longestFragment(ys, shift, 0, kind, eps, new FeasibleRegion)
      val slow = SlowFeasibility.longestFragment(ys, shift, 0, kind, eps)
      // Allow off-by-one on numerically marginal boundaries; the encoder's
      // verification step handles those. Lengths must otherwise agree.
      assert(math.abs(fast.end - slow) <= 1, s"$kind trial $trial eps=$eps: fast=${fast.end} slow=$slow")
      checkValid(ys, shift, kind, eps)
    }
  }

  test("fragments always cover at least one point") {
    val rng = new Random(14)
    val ys = Array.fill(50)(rng.nextInt(1000000).toLong)
    for (kind <- FunctionKind.all; start <- Seq(0, 10, 49)) {
      val fit = ConvexFit.longestFragment(ys, 10, start, kind, 0, new FeasibleRegion)
      assert(fit.end >= start + 1, s"$kind at $start")
    }
  }

  test("eps=0 exact fits validate exactly") {
    val ys = Array.tabulate(200)(i => 5L * (i + 1) + 3)
    val fit = ConvexFit.longestFragment(ys, 0, 0, LinearKind, 0, new FeasibleRegion)
    (fit.start until fit.end).foreach { i =>
      assert(fit.kind.approx(i, fit.m, fit.b, fit.p3) === ys(i))
    }
    assert(fit.end === 200)
  }

  test("out-of-domain exponential point ends the fragment gracefully") {
    // y - eps <= 0 at index 3 without shift
    val ys = Array[Long](10, 9, 8, 1, 10, 12)
    val fit = ConvexFit.longestFragment(ys, 0, 0, ExponentialKind, 2, new FeasibleRegion)
    assert(fit.end <= 3 + 1)
    assert(fit.end > 0)
  }

  for (kind <- FunctionKind.all; eps <- Seq(0L, 1L, 3L, 7L, 15L)) {
    test(s"PiecewiseApprox covers a random walk with $kind at eps=$eps") {
      val rng = new Random(15 + eps)
      var v = 1000L
      val ys = Array.fill(600) { v += rng.nextInt(41) - 20; v }
      val shift = math.max(0L, eps + 1 - ys.min)
      val fits = PiecewiseApprox.partition(ys, shift, kind, eps)
      assert(fits.head.start === 0)
      assert(fits.last.end === ys.length)
      fits.sliding(2).foreach {
        case Seq(a, b) => assert(a.end === b.start)
        case _ =>
      }
      assert(PiecewiseApprox.maxError(ys, shift, fits) <= eps + 1e-6)
    }
  }

  test("greedy fragment count decreases as eps grows") {
    val rng = new Random(16)
    var v = 1000L
    val ys = Array.fill(800) { v += rng.nextInt(11) - 5; v }
    val counts = Seq(0L, 2L, 8L, 32L).map { eps =>
      PiecewiseApprox.partition(ys, 0, LinearKind, eps).length
    }
    assert(counts === counts.sorted.reverse, s"counts not monotone: $counts")
  }
}
