package repro.core.bits

/** Elias-Fano encoding of a monotone non-decreasing sequence of naturals.
  *
  * Stores the `l = max(0, floor(log2(u/n)))` low bits of each element in a
  * packed array, and the high bits as a unary-coded bitvector. Supports
  * O(1) `apply` (via select1 on the high bits) and `rank(v)` — the number
  * of elements <= v — in O(log n) by binary search over `apply`, matching
  * the paper's O(min(log m, log n/m)) bound for S.rank up to constants.
  */
final class EliasFano private[repro] (
    val length: Int,
    private[repro] val lowBits: Int,
    private[repro] val lows: FixedWidthArray,
    private[repro] val highs: BitVector,
) {

  private val lastValue: Long = if (length == 0) -1L else apply(length - 1)
  private val firstValue: Long = if (length == 0) 0L else apply(0)

  def apply(i: Int): Long = {
    if (i < 0 || i >= length) Check.fail(s"index $i out of [0, $length)")
    val high = highs.select1(i) - i
    val low = if (lowBits == 0) 0L else lows(i)
    (high << lowBits) | low
  }

  /** Number of elements <= v. One select0 into the high bits (to locate the
    * bucket of v) plus a scan of the bucket's low bits — the classic
    * Elias-Fano predecessor, O(log + bucket size), far cheaper than a binary
    * search of O(log) full accesses.
    */
  def rank(v: Long): Int = {
    if (length == 0 || v < firstValue) return 0
    if (v >= lastValue) return length
    val h = v >>> lowBits
    val vLow = if (lowBits == 0) 0L else v & ((1L << lowBits) - 1)
    // elements with high < h sit before the h-th zero (1-based) of the highs
    var pos = if (h == 0) 0L else highs.select0(h - 1) + 1
    var i = (pos - h).toInt // element index = ones before pos
    var result = i
    var scanning = true
    while (scanning && pos < highs.length && highs(pos)) {
      val elemLow = if (lowBits == 0) 0L else lows(i)
      if (elemLow <= vLow) { result = i + 1; pos += 1; i += 1 }
      else scanning = false
    }
    result
  }

  def sizeInBits: Long = 3L * 64 + lows.sizeInBits + highs.sizeInBits

  def toArray: Array[Long] = Array.tabulate(length)(apply)
}

object EliasFano {
  def apply(values: Array[Long]): EliasFano = {
    require(values.forall(_ >= 0), "Elias-Fano needs non-negative values")
    var i = 1
    while (i < values.length) {
      require(values(i) >= values(i - 1), s"not monotone at $i: ${values(i - 1)} > ${values(i)}")
      i += 1
    }
    val n = math.max(1, values.length)
    val u = (if (values.isEmpty) 0L else values.last) + 1
    val l = math.max(0, 63 - java.lang.Long.numberOfLeadingZeros(math.max(1L, u / n)))
    val lowMask = if (l == 0) 0L else (1L << l) - 1
    val lows = FixedWidthArray(values.map(_ & lowMask), math.max(1, l))
    // element i sets bit (v_i >>> l) + i of the unary-coded high parts
    val highLen = values.length.toLong + (u >>> l) + 1
    val highWords = new Array[Long](((highLen + 63) >>> 6).toInt)
    i = 0
    while (i < values.length) {
      val pos = (values(i) >>> l) + i
      highWords((pos >>> 6).toInt) |= 1L << (pos & 63).toInt
      i += 1
    }
    new EliasFano(values.length, l, lows, new BitVector(highWords, highLen))
  }
}
