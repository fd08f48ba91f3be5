package repro.perfbench

/** Order statistics over timing samples. */
object Stats {

  /** Linearly interpolated quantile (q in [0, 1]) of unsorted samples. */
  def quantile(samples: Array[Double], q: Double): Double = {
    require(samples.nonEmpty, "no samples")
    val s = samples.clone()
    java.util.Arrays.sort(s)
    val pos = q * (s.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(s.length - 1, lo + 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(samples: Array[Double]): Double = quantile(samples, 0.5)

  /** Mean of the samples ranked within half a percentile of quantile q: a
    * quantile of integer nanosecond timings that still varies below 1 ns.
    */
  def quantileBand(samples: Array[Double], q: Double): Double = {
    val s = samples.clone()
    java.util.Arrays.sort(s)
    val lo = math.max(0, math.floor((q - 0.005) * (s.length - 1)).toInt)
    val hi = math.min(s.length - 1, math.ceil((q + 0.005) * (s.length - 1)).toInt)
    s.slice(lo, hi + 1).sum / (hi - lo + 1)
  }
}
