package repro.core.approx

import java.util.Random
import org.scalacheck.{Gen, Prop}
import repro.{FixedSeed, SparkSpec}
import repro.core.neats.NeaTS
import repro.data.TimeSeries

/** The pruned [[FeasibleRegion]], whose cuts walk from the first live
  * line, against the region that bisected the whole envelope for each cut
  * ([[BisectingRegion]], kept below as the reference). Along every
  * (kind, eps) greedy chain both must end each fragment at the same point.
  * Their parameters may differ by rounding: where a line passes within an
  * ulp of a vertex, the root test is not monotone along the boundaries, and
  * the walk and the bisection can then stop at neighbouring segments. So the
  * parameters are compared to a relative tolerance, and the largest
  * difference seen is reported.
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

  /** Largest relative difference allowed between the two regions' m, b or p3. */
  private val Tolerance = 1e-9

  test("pruned region fits every greedy chain like the bisecting one") {
    var largest = 0.0
    val prop = Prop.forAllNoShrink(series) { ys =>
      val grid = NeaTS.epsGrid(ys)
      val shift = NeaTS.shiftFor(ys, grid.max)
      val diffs = for (kind <- FunctionKind.all; eps <- grid) yield (s"$kind eps=$eps", chainDiff(ys, shift, kind, eps))
      diffs.foreach(_._2.foreach(d => largest = math.max(largest, d)))
      val bad = diffs.filterNot(_._2.exists(_ <= Tolerance))
      Prop(bad.isEmpty) :| s"n=${ys.length}: ${bad.take(3).mkString("; ")}"
    }
    try FixedSeed.check(prop, 20261019L, cases = 150)
    finally info(f"largest relative parameter difference: $largest%.3g")
  }

  test("same end where bisection's probe order picked the segment") {
    // The fragment from point 70,813 of US (quadratic, eps = 3): its right cut
    // moved by an ulp with the bisection's probe order.
    val ys = TimeSeries.dataset("US", 100000).longs
    val shift = NeaTS.shiftFor(ys, NeaTS.epsGrid(ys).max)
    val diff = chainDiff(ys, shift, QuadraticKind, 3)
    assert(diff.exists(_ <= Tolerance), diff)
    info(f"largest relative parameter difference: ${diff.getOrElse(0.0)}%.3g")
  }

  /** Along the pair's greedy chain (Algorithm 1's: each next fit starts at
    * max(end, start + 1)), the first fit whose end differs between the two
    * regions, or else the largest relative difference of m, b and p3.
    */
  private def chainDiff(ys: Array[Long], shift: Long, kind: FunctionKind, eps: Long): Either[String, Double] = {
    val (region, reference) = (new FeasibleRegion, new BisectingRegion)
    var largest = 0.0
    var start = 0
    while (start < ys.length) {
      val got = ConvexFit.longestFragment(ys, shift, start, kind, eps, region)
      val want = BisectingRegion.longestFragment(ys, shift, start, kind, eps, reference)
      if (got.end != want.end) return Left(s"$got vs $want")
      largest = Seq(relDiff(got.m, want.m), relDiff(got.b, want.b), relDiff(got.p3, want.p3)).foldLeft(largest)(math.max)
      start = math.max(got.end, start + 1)
    }
    Right(largest)
  }

  private def relDiff(a: Double, b: Double): Double =
    if (a == b) 0.0 else math.abs(a - b) / math.max(math.abs(a), math.abs(b))
}

/** [[FeasibleRegion]] as it was before pruning: both cuts bisect the whole
  * envelope, the mirrored bottom one with the midpoint rounded the other way.
  * Its arithmetic is kept unchanged as the reference for the pruned region.
  */
final class BisectingRegion {
  private val top = new BisectingRegion.Envelope(rootMidBias = 0) // lines (-t, omega)
  private val bot = new BisectingRegion.Envelope(rootMidBias = 1) // lines (-t, -alpha), read mirrored
  private var mL = Double.NegativeInfinity
  private var mR = Double.PositiveInfinity

  def clear(): Unit = {
    top.clear()
    bot.clear()
    mL = Double.NegativeInfinity
    mR = Double.PositiveInfinity
  }

  def addPoint(t: Double, alpha: Double, omega: Double): Boolean = {
    val s = -t
    if (top.size == 0) { top.push(s, omega); bot.push(s, -alpha); return true }
    val newML = math.max(mL, top.root(s, alpha))
    val newMR = math.min(mR, -bot.root(s, -omega))
    val tol = 1e-9 * (1.0 + math.max(math.abs(newML), math.abs(newMR)))
    if (newML > newMR + tol) return false
    bot.push(s, -alpha)
    top.push(s, omega)
    mL = newML
    mR = newMR
    true
  }

  def solve(): (Double, Double) = {
    if (top.size == 0) return (0.0, 0.0)
    val m =
      if (mL.isNegInfinity && mR.isPosInfinity) 0.0
      else if (mL.isNegInfinity) mR - 1.0
      else if (mR.isPosInfinity) mL + 1.0
      else (mL + mR) / 2.0
    (m, (-bot.at(-m) + top.at(m)) / 2.0)
  }
}

object BisectingRegion {

  /** Lower envelope of lines `s*m + c` pushed with falling slopes; `root`
    * bisects over every boundary, probing (lo + hi - rootMidBias) / 2.
    */
  final class Envelope(rootMidBias: Int) {
    private var s = new Array[Double](16)
    private var c = new Array[Double](16)
    private var lb = new Array[Double](16)
    var size = 0

    def clear(): Unit = size = 0

    def push(sl: Double, cl: Double): Unit = {
      while (size > 0) {
        val i = size - 1
        if (sl == s(i)) {
          if (cl >= c(i)) return
          size -= 1
        } else {
          val x = (c(i) - cl) / (sl - s(i))
          if (x <= lb(i)) size -= 1
          else { append(sl, cl, x); return }
        }
      }
      append(sl, cl, Double.NegativeInfinity)
    }

    private def append(sl: Double, cl: Double, x: Double): Unit = {
      if (size == s.length) {
        s = java.util.Arrays.copyOf(s, size * 2)
        c = java.util.Arrays.copyOf(c, size * 2)
        lb = java.util.Arrays.copyOf(lb, size * 2)
      }
      s(size) = sl; c(size) = cl; lb(size) = x; size += 1
    }

    def at(m: Double): Double = {
      var lo = 0; var hi = size - 1
      while (lo < hi) {
        val mid = (lo + hi + 1) >>> 1
        if (lb(mid) <= m) lo = mid else hi = mid - 1
      }
      s(lo) * m + c(lo)
    }

    def root(sa: Double, ca: Double): Double = {
      var lo = 1; var hi = size
      while (lo < hi) {
        val mid = (lo + hi - rootMidBias) >>> 1
        val m = lb(mid)
        if ((s(mid) * m + c(mid)) - (sa * m + ca) >= 0) hi = mid else lo = mid + 1
      }
      val denom = s(lo - 1) - sa
      if (denom == 0) Double.NegativeInfinity else (ca - c(lo - 1)) / denom
    }
  }

  /** [[ConvexFit.longestFragment]] over the reference region. */
  def longestFragment(ys: Array[Long], shift: Long, start: Int, kind: FunctionKind, eps: Long,
                      region: BisectingRegion): Fit = {
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
