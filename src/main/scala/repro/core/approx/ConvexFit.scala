package repro.core.approx

/** O'Rourke's feasibility polygon, generalised per Theorem 1 of the paper.
  *
  * Constraints `alpha_k <= t_k m + b <= omega_k` are the half-planes
  * `b >= -t_k m + alpha_k` (bottom) and `b <= -t_k m + omega_k` (top) in the
  * dual (m, b) plane. Because `t_k` is strictly increasing, every new line
  * has the steepest negative slope seen so far, so:
  *
  *  - the feasible region's bottom boundary (upper envelope of alpha-lines)
  *    only grows at its left end, and the new alpha-line can only cut the
  *    feasible m-interval from the left;
  *  - the top boundary (lower envelope of omega-lines) only grows at its
  *    right end, and the new omega-line cuts the interval from the right.
  *
  * We therefore maintain the two line envelopes (amortised O(1) insertion,
  * convex-hull-trick style) plus the feasible slope interval [mL, mR]
  * (shrinks monotonically; root-finding against the opposite envelope is a
  * binary search). The fragment ends when mL > mR.
  *
  * Implementation note: everything is primitive `Array[Double]` stacks — the
  * fitting loop is the compressor's hot path and must not allocate per point
  * (boxed envelopes triggered JIT deopt storms and an ~80x slowdown).
  */
final class FeasibleRegion {
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
    * `ys`. Optimal O(end - start) amortised, modulo the binary searches.
    * `region` is cleared here, so one region's buffers serve every fragment.
    */
  def longestFragment(ys: Array[Long], shift: Long, start: Int, kind: FunctionKind, eps: Long,
                      region: FeasibleRegion): Fit = {
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
