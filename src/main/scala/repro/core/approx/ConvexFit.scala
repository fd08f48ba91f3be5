package repro.core.approx

import scala.annotation.switch

/** O'Rourke's feasibility polygon, generalised per Theorem 1 of the paper.
  *
  * Constraints `alpha_k <= t_k m + b <= omega_k` are the half-planes
  * `b >= -t_k m + alpha_k` (bottom) and `b <= -t_k m + omega_k` (top) in the
  * dual (m, b) plane. Because `t_k` is strictly increasing, every new line
  * has the steepest negative slope seen so far, so:
  *
  *  - the top boundary (lower envelope of omega-lines) only grows at its
  *    right end, and the new alpha-line can only cut the feasible
  *    m-interval from the left, where it crosses the top boundary;
  *  - the bottom boundary (upper envelope of alpha-lines) only grows at its
  *    left end, and the new omega-line cuts the interval from the right.
  *
  * Mirrored through (m, b) -> (-m, -b), the bottom boundary is the lower
  * envelope of the lines (-t_k, -alpha_k), which grows at its right end too:
  * bottom(m) = -bot.at(-m), so one [[Envelope]] serves both. Negation is
  * exact in IEEE arithmetic, so the mirror loses nothing. The fragment ends
  * when the feasible slope interval [mL, mR] (shrinks monotonically) empties.
  *
  * Since mL only grows, top's lines that end left of it never bound the
  * region again, and likewise bot's left of -mR: each accepted point prunes
  * them, so the cuts walk from the first live line: amortised O(1) per
  * point, as in O'Rourke's algorithm.
  */
final class FeasibleRegion {
  private val top = new Envelope // lines (-t, omega)
  private val bot = new Envelope // lines (-t, -alpha), read mirrored
  private var mL = Double.NegativeInfinity
  private var mR = Double.PositiveInfinity

  /** Reset for reuse on the next fragment (arrays are kept — fitting runs
    * millions of short fragments and must not allocate per fragment).
    */
  def clear(): Unit = {
    top.clear()
    bot.clear()
    mL = Double.NegativeInfinity
    mR = Double.PositiveInfinity
  }

  /** Add the constraint pair for one data point: `alpha <= t*m + b <= omega`
    * i.e. lines of slope -t. Returns false (leaving the state untouched, the
    * fragment is finished) if the region would become empty.
    */
  def addPoint(t: Double, alpha: Double, omega: Double): Boolean = {
    val s = -t
    if (top.size == 0) { top.push(s, omega); bot.push(s, -alpha); return true }
    // The right cut can be computed against the OLD bottom envelope: the new
    // bottom is max(old, L_alpha) and L_omega >= L_alpha everywhere
    // (parallel, alpha <= omega), so L_alpha never determines the crossing.
    // Computing both cuts before mutating keeps the state clean on rejection.
    val newML = math.max(mL, top.root(s, alpha))
    val newMR = math.min(mR, -bot.root(s, -omega))
    // Tolerance: the region may legitimately degenerate to a single point
    // (constraints touching), which floating point can flip to "just empty".
    // Marginal acceptances are caught later by the encoder's verify+repair.
    val tol = 1e-9 * (1.0 + math.max(math.abs(newML), math.abs(newMR)))
    if (newML > newMR + tol) return false
    bot.push(s, -alpha)
    top.push(s, omega)
    mL = newML
    mR = newMR
    top.prune(mL)
    bot.prune(-mR)
    true
  }

  /** Pick an interior feasible (m, b); callers must have added >= 1 point. */
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

/** Lower envelope (pointwise min) of lines `s*m + c`, each pushed with a
  * slope below every earlier one, so it only grows at its right end
  * (amortised O(1) insertion, convex-hull-trick style). Stored left to
  * right; `lb(i)` is the left end of line i's interval (-inf at 0).
  *
  * `head` is the first line not pruned: every line before it ends at or
  * before the last pruning point. Pruned lines stay in the arrays, so `push`
  * and `at` see the whole envelope.
  *
  * Everything is primitive `Array[Double]` stacks — the fitting loop is the
  * compressor's hot path and must not allocate per point (boxed envelopes
  * triggered JIT deopt storms and an ~80x slowdown).
  */
private final class Envelope {
  private var s = new Array[Double](16)
  private var c = new Array[Double](16)
  private var lb = new Array[Double](16)
  var size = 0
  private var head = 0

  def clear(): Unit = { size = 0; head = 0 }

  def push(sl: Double, cl: Double): Unit = {
    while (size > 0) {
      val i = size - 1
      if (sl == s(i)) {
        if (cl >= c(i)) return // weaker duplicate-slope line: ignore
        size -= 1 // replace
      } else {
        val x = (c(i) - cl) / (sl - s(i)) // where the new line crosses line i
        if (x <= lb(i)) size -= 1 // dominated
        else { append(sl, cl, x); return }
      }
    }
    append(sl, cl, Double.NegativeInfinity)
  }

  private def append(sl: Double, cl: Double, x: Double): Unit = {
    if (size == s.length) grow()
    s(size) = sl; c(size) = cl; lb(size) = x; size += 1
  }

  // Out of line: inlined, the copying made `push` too big for the JIT to
  // inline into `addPoint`.
  private def grow(): Unit = {
    s = java.util.Arrays.copyOf(s, size * 2)
    c = java.util.Arrays.copyOf(c, size * 2)
    lb = java.util.Arrays.copyOf(lb, size * 2)
  }

  /** Moves `head` past every line whose interval ends at or before x. A
    * push may have replaced the head line itself; the line that replaced
    * it is then the last one.
    */
  def prune(x: Double): Unit = {
    if (head >= size) head = size - 1
    while (head + 1 < size && lb(head + 1) <= x) head += 1
  }

  /** The envelope's value at m. A full search, not one from `head`: the
    * cuts' tolerance lets the solved m sit a rounding error outside
    * [mL, mR], left of the pruning point.
    */
  def at(m: Double): Double = {
    var lo = 0; var hi = size - 1
    while (lo < hi) { // largest i with lb(i) <= m
      val mid = (lo + hi + 1) >>> 1
      if (lb(mid) <= m) lo = mid else hi = mid - 1
    }
    s(lo) * m + c(lo)
  }

  /** Root of at(m) = sa*m + ca, where sa is strictly below every slope (so
    * g(m) = at(m) - line is increasing and crosses zero exactly once),
    * walking from the first boundary after `head`. A root left of it lies
    * left of the pruning point, which the caller's max/min with the old cut
    * then discards. Every boundary walked past lies left of the new cut, so
    * the next prune drops it: each line is passed at most once.
    * A boundary with g == 0 is the root itself and the segment left of it
    * is used: selecting past it can land on a parallel segment and lose the
    * cut (degenerate eps=0).
    */
  def root(sa: Double, ca: Double): Double = {
    var i = head + 1 // the first boundary with g >= 0 (a NaN g is not), or `size` if none
    while (i < size && !((s(i) * lb(i) + c(i)) - (sa * lb(i) + ca) >= 0)) i += 1
    val denom = s(i - 1) - sa
    if (denom == 0) Double.NegativeInfinity else (ca - c(i - 1)) / denom
  }
}

/** A fitted fragment: points [start, end) (0-based indices into the series,
  * global timestamps x = idx + 1), kind, and stored parameters.
  */
final case class Fit(start: Int, end: Int, kind: FunctionKind, m: Double, b: Double, p3: Double) {
  def length: Int = end - start
  def eval(idx: Int): Double = kind.eval((idx + 1).toDouble, m, b, p3)
}

object ConvexFit {

  /** Longest fragment starting at `start` that admits an eps-approximation of
    * `kind` over the (already shifted, strictly positive where needed) values
    * `ys`: [[fitEnd]], then one solve of the region it leaves. Optimal
    * O(end - start) amortised, modulo the binary searches of `solve`.
    * `region` is cleared here, so one region's buffers serve every fragment.
    */
  def longestFragment(ys: Array[Long], shift: Long, start: Int, kind: FunctionKind, eps: Long,
                      region: FeasibleRegion): Fit = {
    val end = fitEnd(ys, shift, start, kind, eps, region)
    if (end == start) return Fit(start, start, kind, 0, 0, 0)
    val (m, b) = region.solve()
    Fit(start, end, kind, m, b, kind.param3(m, b, (start + 1).toDouble, (ys(start) + shift).toDouble))
  }

  /** The end of [[longestFragment]]'s fit, without solving for its
    * parameters: the accepted constraints are left in `region`. `start` when
    * the first point is out of the kind's domain. Algorithm 1 calls this for
    * every fit of every chain and solves only the few on the shortest path.
    *
    * The kind is dispatched by id to each case object's own
    * `constraintInto`, so the calls are static and inline into the loop; the
    * `out` array stays local, where the JIT can keep it in registers.
    */
  def fitEnd(ys: Array[Long], shift: Long, start: Int, kind: FunctionKind, eps: Long,
             region: FeasibleRegion): Int = {
    val n = ys.length
    require(start >= 0 && start < n, s"start $start out of [0, $n)")
    val id = kind.id
    region.clear()
    val x0 = (start + 1).toDouble
    val y0 = (ys(start) + shift).toDouble
    val e = eps.toDouble
    val out = new Array[Double](3)
    var k = start
    while (k < n) {
      val x = (k + 1).toDouble
      val y = (ys(k) + shift).toDouble
      val r = (id: @switch) match {
        case 0 => LinearKind.constraintInto(x, y, e, x0, y0, out)
        case 1 => RadicalKind.constraintInto(x, y, e, x0, y0, out)
        case 2 => ExponentialKind.constraintInto(x, y, e, x0, y0, out)
        case 3 => QuadraticKind.constraintInto(x, y, e, x0, y0, out)
        case _ => throw new IllegalArgumentException(s"unknown function kind id $id")
      }
      if (r == FunctionKind.OutOfDomainPoint) return k
      if (r == FunctionKind.Constrained && !region.addPoint(out(0), out(1), out(2))) return k
      k += 1
    }
    k
  }
}
