package repro.baselines.lossy

import repro.core.approx.{Fit, LinearKind, PiecewiseApprox}
import repro.core.neats.Partitioner

/** The optimal Piecewise Linear Approximation baseline [O'Rourke, CACM'81]:
  * greedy longest-fragment linear fitting, which minimises the number of
  * segments for a fixed error bound (Table II's PLA column).
  */
object PLA {
  def partition(ys: Array[Long], eps: Long): Vector[Fit] =
    PiecewiseApprox.partition(ys, shift = 0L, LinearKind, eps)

  /** Table II's lossy size: [[Partitioner.lossyBits]] per segment. */
  def sizeBits(fits: Seq[Fit]): Long = fits.length.toLong * Partitioner.lossyBits(LinearKind)
}
