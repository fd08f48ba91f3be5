package repro.baselines.lossy

import repro.core.approx.LinearKind
import repro.core.neats.Partitioner

/** The Adaptive Approximation baseline [Xu et al., EDBT'12; Qi et al., WWW'15]
  * as characterised in the NeaTS paper (§IV-B, §V-c): a heuristic partitioner
  * over linear, exponential, and quadratic functions whose fragments all pass
  * through their first data point (one free parameter each), extended
  * greedily — the two design choices that make AA sub-optimal in compression
  * ratio despite its use of nonlinear shapes.
  */
object AdaptiveApprox {

  /** kind: 0 linear y0 + t*(x-x0); 1 exponential y0*e^{t(x-x0)};
    * 2 quadratic y0 + t*(x-x0)^2. All anchored at (x0, y0) = fragment start.
    */
  final case class AAFragment(start: Int, end: Int, kindId: Int, theta: Double, y0: Double) {
    def length: Int = end - start
    def eval(idx: Int): Double = {
      val dx = (idx - start).toDouble
      kindId match {
        case 0 => y0 + theta * dx
        case 1 => y0 * math.exp(theta * dx)
        case 2 => y0 + theta * dx * dx
      }
    }
  }

  def partition(ys: Array[Long], shift: Long, eps: Long): Vector[AAFragment] = {
    val n = ys.length
    val out = scala.collection.mutable.ArrayBuffer[AAFragment]()
    var start = 0
    while (start < n) {
      val y0 = (ys(start) + shift).toDouble
      var best: AAFragment = AAFragment(start, start + 1, 0, 0.0, y0)
      var kind = 0
      while (kind < 3) {
        val frag = extend(ys, shift, start, y0, kind, eps)
        if (frag.end > best.end || (frag.end == best.end && frag.kindId == 0)) best = frag
        kind += 1
      }
      out += best
      start = best.end
    }
    out.toVector
  }

  /** Greedily intersect the per-point feasible interval of the single free
    * parameter theta; stop at the first empty intersection.
    */
  private def extend(ys: Array[Long], shift: Long, start: Int, y0: Double,
                     kind: Int, eps: Long): AAFragment = {
    val n = ys.length
    var lo = Double.NegativeInfinity
    var hi = Double.PositiveInfinity
    var k = start + 1
    var done = false
    while (k < n && !done) {
      val y = (ys(k) + shift).toDouble
      val dx = (k - start).toDouble
      val bounds: Option[(Double, Double)] = kind match {
        case 0 => Some(((y - eps - y0) / dx, (y + eps - y0) / dx))
        case 1 =>
          if (y0 <= 0 || y - eps <= 0) None
          else Some((math.log((y - eps) / y0) / dx, math.log((y + eps) / y0) / dx))
        case 2 => Some(((y - eps - y0) / (dx * dx), (y + eps - y0) / (dx * dx)))
      }
      bounds match {
        case None => done = true
        case Some((a, b)) =>
          val nlo = math.max(lo, a)
          val nhi = math.min(hi, b)
          if (nlo > nhi) done = true
          else { lo = nlo; hi = nhi; k += 1 }
      }
    }
    val theta =
      if (lo.isNegInfinity && hi.isPosInfinity) 0.0
      else if (lo.isNegInfinity) hi
      else if (hi.isPosInfinity) lo
      else (lo + hi) / 2
    AAFragment(start, k, kind, theta, y0)
  }

  /** Table II's lossy size: a fragment stores two parameters (anchor value
    * and theta), as a linear one does, so [[Partitioner.lossyBits]] of it.
    */
  def sizeBits(frags: Seq[AAFragment]): Long = frags.length.toLong * Partitioner.lossyBits(LinearKind)
}
