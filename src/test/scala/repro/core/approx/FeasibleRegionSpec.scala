package repro.core.approx

import java.lang.Double.doubleToRawLongBits
import java.util.Random
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import repro.SparkSpec
import repro.core.neats.NeaTS
import repro.data.TimeSeries

/** The one-envelope [[FeasibleRegion]] against the two hand-mirrored
  * envelopes it replaced ([[TwoEnvelopeRegion]], kept below as the
  * reference): along every (kind, eps) greedy chain both must end each
  * fragment at the same point and give the same parameters, bit for bit.
  */
class FeasibleRegionSpec extends SparkSpec {

  /** A random walk, constant runs, a steep noisy ramp, an exponential-like
    * curve, or a window of a dataset analogue.
    */
  private val series: Gen[Array[Long]] = for {
    n <- Gen.frequency(1 -> Gen.choose(1, 5), 4 -> Gen.choose(6, 400), 2 -> Gen.choose(401, 2500))
    shape <- Gen.choose(0, 4)
    seed <- Gen.long
  } yield {
    val rng = new Random(seed)
    shape match {
      case 0 =>
        val step = Seq(2, 20, 2000, 1 << 20)(rng.nextInt(4))
        var v = rng.nextInt(100000).toLong
        Array.fill(n) { v += rng.nextInt(step + 1) - step / 2; v }
      case 1 =>
        var v = 0L
        var left = 0
        Array.fill(n) {
          if (left == 0) { v = rng.nextInt(1000).toLong; left = 1 + rng.nextInt(300) }
          left -= 1
          v
        }
      case 2 =>
        val slope = 1L + rng.nextInt(1 << 20)
        Array.tabulate(n)(i => slope * i + rng.nextInt(1 + rng.nextInt(1000)))
      case 3 =>
        val (a, r) = (1.0 + rng.nextInt(1000), (1 + rng.nextInt(30)) / math.max(n, 100).toDouble)
        Array.tabulate(n)(i => math.round(a * math.exp(r * i)) + rng.nextInt(3))
      case _ =>
        val name = TimeSeries.names(rng.nextInt(TimeSeries.names.length))
        val from = rng.nextInt(2000)
        TimeSeries.dataset(name, from + n).longs.drop(from)
    }
  }

  test("one-envelope region fits every greedy chain bit for bit like the two-envelope one") {
    val prop = Prop.forAllNoShrink(series) { ys =>
      val grid = NeaTS.epsGrid(ys)
      val shift = NeaTS.shiftFor(ys, grid.max)
      val mismatches = for (kind <- FunctionKind.all; eps <- grid) yield chainMismatch(ys, shift, kind, eps)
      Prop(mismatches.forall(_.isEmpty)) :| s"n=${ys.length}: ${mismatches.flatten.take(3).mkString("; ")}"
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(150).withInitialSeed(Seed(20261019L))
    val result = Test.check(params, prop)
    assert(result.passed, Pretty.pretty(Pretty.prettyTestRes(result), Pretty.defaultParams))
  }

  test("bit for bit where the root bisection's probe order picks the segment") {
    // The fragment from point 70,813 of US (quadratic, eps = 3): its right cut
    // moves by an ulp if the mirrored envelope bisects as the top one does.
    val ys = TimeSeries.dataset("US", 100000).longs
    val shift = NeaTS.shiftFor(ys, NeaTS.epsGrid(ys).max)
    assert(chainMismatch(ys, shift, QuadraticKind, 3) === None)
  }

  /** The first fit along the pair's greedy chain (Algorithm 1's: each next
    * fit starts at max(end, start + 1)) where the two regions differ.
    */
  private def chainMismatch(ys: Array[Long], shift: Long, kind: FunctionKind, eps: Long): Option[String] = {
    val (region, reference) = (new FeasibleRegion, new TwoEnvelopeRegion)
    var start = 0
    while (start < ys.length) {
      val got = ConvexFit.longestFragment(ys, shift, start, kind, eps, region)
      val want = TwoEnvelopeRegion.longestFragment(ys, shift, start, kind, eps, reference)
      if (bits(got) != bits(want)) return Some(s"$kind eps=$eps: $got vs $want")
      start = math.max(got.end, start + 1)
    }
    None
  }

  private def bits(f: Fit): (Int, Int, FunctionKind, Long, Long, Long) =
    (f.start, f.end, f.kind, doubleToRawLongBits(f.m), doubleToRawLongBits(f.b), doubleToRawLongBits(f.p3))
}

/** [[FeasibleRegion]] as it was with two hand-mirrored envelopes (the
  * bottom one stored reversed), kept verbatim as the reference for the
  * one-envelope region.
  */
final class TwoEnvelopeRegion {
  // Top boundary: lower envelope (min) of omega-lines. Stored left-to-right;
  // slopes strictly decrease with insertion so each new line is appended at
  // the right end. topLb(i) = left boundary of entry i's interval (-inf at 0).
  private var topS = new Array[Double](16)
  private var topC = new Array[Double](16)
  private var topLb = new Array[Double](16)
  private var topN = 0

  // Bottom boundary: upper envelope (max) of alpha-lines. Stored REVERSED
  // (index 0 = rightmost segment) so that the new leftmost line is appended
  // at the end. botRb(i) = right boundary of entry i's interval (+inf at 0).
  private var botS = new Array[Double](16)
  private var botC = new Array[Double](16)
  private var botRb = new Array[Double](16)
  private var botN = 0

  private var mL = Double.NegativeInfinity
  private var mR = Double.PositiveInfinity

  /** Reset for reuse on the next fragment (arrays are kept — fitting runs
    * millions of short fragments and must not allocate per fragment).
    */
  def clear(): Unit = {
    topN = 0
    botN = 0
    mL = Double.NegativeInfinity
    mR = Double.PositiveInfinity
  }

  private def growTop(): Unit = {
    topS = java.util.Arrays.copyOf(topS, topS.length * 2)
    topC = java.util.Arrays.copyOf(topC, topC.length * 2)
    topLb = java.util.Arrays.copyOf(topLb, topLb.length * 2)
  }

  private def growBot(): Unit = {
    botS = java.util.Arrays.copyOf(botS, botS.length * 2)
    botC = java.util.Arrays.copyOf(botC, botC.length * 2)
    botRb = java.util.Arrays.copyOf(botRb, botRb.length * 2)
  }

  private def intersect(s1: Double, c1: Double, s2: Double, c2: Double): Double =
    (c2 - c1) / (s1 - s2)

  private def pushTop(s: Double, c: Double): Unit = {
    while (topN > 0) {
      val i = topN - 1
      if (s == topS(i)) {
        if (c >= topC(i)) return // weaker duplicate-slope line: ignore
        topN -= 1 // replace
      } else {
        val x = intersect(s, c, topS(i), topC(i))
        if (x <= topLb(i)) topN -= 1 // dominated
        else {
          if (topN == topS.length) growTop()
          topS(topN) = s; topC(topN) = c; topLb(topN) = x; topN += 1
          return
        }
      }
    }
    if (topN == topS.length) growTop()
    topS(0) = s; topC(0) = c; topLb(0) = Double.NegativeInfinity; topN = 1
  }

  private def pushBottom(s: Double, c: Double): Unit = {
    while (botN > 0) {
      val i = botN - 1
      if (s == botS(i)) {
        if (c <= botC(i)) return
        botN -= 1
      } else {
        val x = intersect(s, c, botS(i), botC(i))
        if (x >= botRb(i)) botN -= 1 // dominated
        else {
          if (botN == botS.length) growBot()
          botS(botN) = s; botC(botN) = c; botRb(botN) = x; botN += 1
          return
        }
      }
    }
    if (botN == botS.length) growBot()
    botS(0) = s; botC(0) = c; botRb(0) = Double.PositiveInfinity; botN = 1
  }

  /** Evaluate the top boundary at slope m. */
  def topAt(m: Double): Double = {
    var lo = 0; var hi = topN - 1
    while (lo < hi) { // largest i with topLb(i) <= m
      val mid = (lo + hi + 1) >>> 1
      if (topLb(mid) <= m) lo = mid else hi = mid - 1
    }
    topS(lo) * m + topC(lo)
  }

  /** Evaluate the bottom boundary at slope m. */
  def bottomAt(m: Double): Double = {
    var lo = 0; var hi = botN - 1
    while (lo < hi) { // entries reversed: largest i with botRb(i) >= m
      val mid = (lo + hi + 1) >>> 1
      if (botRb(mid) >= m) lo = mid else hi = mid - 1
    }
    botS(lo) * m + botC(lo)
  }

  /** Root of top(m) = sa*m + ca, where sa is strictly below every top slope
    * (so g(m) = top - line is increasing and crosses zero exactly once).
    */
  private def rootTopVsLine(sa: Double, ca: Double): Double = {
    // find the smallest boundary with g >= 0; the root is in the segment
    // before it (g is increasing in m).
    var lo = 1; var hi = topN // `hi` means "no boundary with g >= 0"
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      val m = topLb(mid)
      val g = (topS(mid) * m + topC(mid)) - (sa * m + ca)
      if (g >= 0) hi = mid else lo = mid + 1
    }
    val seg = if (lo - 1 > 0) lo - 1 else 0
    val denom = topS(seg) - sa
    if (denom == 0) Double.NegativeInfinity else (ca - topC(seg)) / denom
  }

  /** Root of sw*m + cw = bottom(m), sw strictly below every bottom slope
    * (h(m) = line - bottom is decreasing and crosses zero exactly once).
    * Strict `< 0` below: a boundary with h == 0 IS the root; selecting past
    * it can land on a parallel segment and lose the cut (degenerate eps=0).
    */
  private def rootLineVsBottom(sw: Double, cw: Double): Double = {
    var lo = 0; var hi = botN - 1
    while (lo < hi) { // largest j with h(botRb(j)) < 0 (j=0: rb=+inf, h=-inf)
      val mid = (lo + hi + 1) >>> 1
      val rb = botRb(mid)
      val hv =
        if (java.lang.Double.isInfinite(rb)) { if (rb > 0) Double.NegativeInfinity else Double.PositiveInfinity }
        else (sw * rb + cw) - (botS(mid) * rb + botC(mid))
      if (hv < 0) lo = mid else hi = mid - 1
    }
    val denom = sw - botS(lo)
    if (denom == 0) Double.PositiveInfinity else (botC(lo) - cw) / denom
  }

  /** Add the constraint pair for one data point: `alpha <= t*m + b <= omega`
    * i.e. lines of slope -t. Returns false (leaving the state untouched, the
    * fragment is finished) if the region would become empty.
    */
  def addPoint(t: Double, alpha: Double, omega: Double): Boolean = {
    val s = -t
    if (topN == 0) { pushTop(s, omega); pushBottom(s, alpha); return true }
    // The right cut can be computed against the OLD bottom envelope: the new
    // bottom is max(old, L_alpha) and L_omega >= L_alpha everywhere
    // (parallel, alpha <= omega), so L_alpha never determines the crossing.
    // Computing both cuts before mutating keeps the state clean on rejection.
    val mLcand = rootTopVsLine(s, alpha)
    val newML = math.max(mL, mLcand)
    val mRcand = rootLineVsBottom(s, omega)
    val newMR = math.min(mR, mRcand)
    // Tolerance: the region may legitimately degenerate to a single point
    // (constraints touching), which floating point can flip to "just empty".
    // Marginal acceptances are caught later by the encoder's verify+repair.
    val tol = 1e-9 * (1.0 + math.max(math.abs(newML), math.abs(newMR)))
    if (newML > newMR + tol) return false
    pushBottom(s, alpha)
    pushTop(s, omega)
    mL = newML
    mR = newMR
    true
  }

  /** Pick an interior feasible (m, b); callers must have added >= 1 point. */
  def solve(): (Double, Double) = {
    if (topN == 0) return (0.0, 0.0)
    val m =
      if (mL.isNegInfinity && mR.isPosInfinity) 0.0
      else if (mL.isNegInfinity) mR - 1.0
      else if (mR.isPosInfinity) mL + 1.0
      else (mL + mR) / 2.0
    val b = (bottomAt(m) + topAt(m)) / 2.0
    (m, b)
  }
}

object TwoEnvelopeRegion {

  /** [[ConvexFit.longestFragment]] over the reference region. */
  def longestFragment(ys: Array[Long], shift: Long, start: Int, kind: FunctionKind, eps: Long,
                      region: TwoEnvelopeRegion): Fit = {
    val n = ys.length
    require(start >= 0 && start < n, s"start $start out of [0, $n)")
    region.clear()
    val x0 = (start + 1).toDouble
    val y0 = (ys(start) + shift).toDouble
    val e = eps.toDouble
    val out = new Array[Double](3)
    var k = start
    var done = false
    while (k < n && !done) {
      val x = (k + 1).toDouble
      val y = (ys(k) + shift).toDouble
      kind.constraintInto(x, y, e, x0, y0, out) match {
        case FunctionKind.VacuousPoint => k += 1
        case FunctionKind.OutOfDomainPoint =>
          if (k == start) return Fit(start, start, kind, 0, 0, 0) else done = true
        case _ =>
          if (region.addPoint(out(0), out(1), out(2))) k += 1 else done = true
      }
    }
    val (m, b) = region.solve()
    Fit(start, k, kind, m, b, kind.param3(m, b, x0, y0))
  }
}
