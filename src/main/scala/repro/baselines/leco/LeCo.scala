package repro.baselines.leco

import repro.baselines.CompressedSeq
import repro.core.bits.{BitReader, BitWriter, FixedWidthArray}

/** LeCo [Liu, Zeng, Zhang, SIGMOD'24]: lightweight learned compression of an
  * integer sequence with native random access.
  *
  * Per the paper's description (§V-b of NeaTS): a learned (regression) model
  * per partition plus bit-packed residuals, with a greedy partitioning that
  * extends/merges fixed-size chunks while an estimate of the compressed size
  * improves — deliberately heuristic, unlike NeaTS' optimal partitioning.
  */
final class LeCoCompressed(
    val n: Int,
    starts: Array[Int],        // block starts, ascending
    slopes: Array[Double],
    intercepts: Array[Double],
    mins: Array[Long],         // residual frame-of-reference per block
    widths: Array[Int],
    residuals: BitReader,
    offsets: Array[Long],      // bit offset of each block's residuals
) extends CompressedSeq {

  def sizeInBits: Long =
    starts.length.toLong * (32 + 64 + 64 + 64 + 8 + 64) + residuals.lengthInBits

  private def blockOf(i: Int): Int = {
    var lo = 0
    var hi = starts.length - 1
    while (lo < hi) {
      val mid = (lo + hi + 1) >>> 1
      if (starts(mid) <= i) lo = mid else hi = mid - 1
    }
    lo
  }

  def get(i: Int): Long = {
    val b = blockOf(i)
    val j = i - starts(b)
    val pred = math.round(slopes(b) * j + intercepts(b))
    val w = widths(b)
    val res = if (w == 0) 0L else residuals.get(offsets(b) + j.toLong * w, w)
    pred + mins(b) + res
  }

  def decompressAll(): Array[Long] = {
    val out = new Array[Long](n)
    var b = 0
    while (b < starts.length) {
      val start = starts(b)
      val end = if (b + 1 < starts.length) starts(b + 1) else n
      val slope = slopes(b)
      val icept = intercepts(b)
      val mn = mins(b)
      val w = widths(b)
      var off = offsets(b)
      var i = start
      while (i < end) {
        val res = if (w == 0) 0L else residuals.get(off, w)
        out(i) = math.round(slope * (i - start) + icept) + mn + res
        off += w
        i += 1
      }
      b += 1
    }
    out
  }
}

object LeCo {
  private val Chunk = 128
  private val MaxBlock = 4096

  def compress(values: Array[Long]): LeCoCompressed = {
    val n = values.length
    val blocks = scala.collection.mutable.ArrayBuffer[(Int, Int)]() // [start, end)
    var start = 0
    // greedy: extend the current block chunk-by-chunk while the size estimate improves
    while (start < n) {
      var end = math.min(start + Chunk, n)
      var curCost = blockCost(values, start, end)
      var improved = true
      while (improved && end < n && end - start < MaxBlock) {
        val nextEnd = math.min(end + Chunk, n)
        val merged = blockCost(values, start, nextEnd)
        val separate = curCost + blockCost(values, end, nextEnd)
        if (merged <= separate) { end = nextEnd; curCost = merged }
        else improved = false
      }
      blocks += ((start, end))
      start = end
    }

    val m = blocks.length
    val starts = new Array[Int](m)
    val slopes = new Array[Double](m)
    val intercepts = new Array[Double](m)
    val mins = new Array[Long](m)
    val widths = new Array[Int](m)
    val offsets = new Array[Long](m)
    val w = new BitWriter(n)
    var b = 0
    blocks.foreach { case (s, e) =>
      val (slope, icept) = fit(values, s, e)
      var mn = Long.MaxValue
      var mx = Long.MinValue
      var i = s
      while (i < e) {
        val r = values(i) - math.round(slope * (i - s) + icept)
        if (r < mn) mn = r
        if (r > mx) mx = r
        i += 1
      }
      val width = if (mx == mn) 0 else FixedWidthArray.bitsFor(mx - mn)
      starts(b) = s; slopes(b) = slope; intercepts(b) = icept
      mins(b) = mn; widths(b) = width; offsets(b) = w.lengthInBits
      i = s
      while (i < e) {
        val r = values(i) - math.round(slope * (i - s) + icept)
        w.append(r - mn, width)
        i += 1
      }
      b += 1
    }
    new LeCoCompressed(n, starts, slopes, intercepts, mins, widths,
      w.reader, offsets)
  }

  /** Least-squares linear fit of values[s, e) against local index. */
  private def fit(values: Array[Long], s: Int, e: Int): (Double, Double) = {
    val len = e - s
    if (len == 1) return (0.0, values(s).toDouble)
    var sy = 0.0
    var sjy = 0.0
    var i = 0
    while (i < len) { val y = values(s + i).toDouble; sy += y; sjy += i * y; i += 1 }
    val sj = (len - 1).toDouble * len / 2
    val sj2 = (len - 1).toDouble * len * (2 * len - 1) / 6
    val denom = len * sj2 - sj * sj
    val slope = if (denom == 0) 0.0 else (len * sjy - sj * sy) / denom
    val icept = (sy - slope * sj) / len
    (slope, icept)
  }

  /** Estimated encoded size in bits of one block. */
  private def blockCost(values: Array[Long], s: Int, e: Int): Long = {
    val (slope, icept) = fit(values, s, e)
    var mn = Long.MaxValue
    var mx = Long.MinValue
    var i = s
    while (i < e) {
      val r = values(i) - math.round(slope * (i - s) + icept)
      if (r < mn) mn = r
      if (r > mx) mx = r
      i += 1
    }
    val width = if (mx == mn) 0 else FixedWidthArray.bitsFor(mx - mn)
    (32L + 64 + 64 + 64 + 8 + 64) + (e - s).toLong * width
  }
}
