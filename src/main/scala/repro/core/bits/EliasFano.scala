package repro.core.bits

/** Elias-Fano encoding of a monotone non-decreasing sequence of naturals.
  *
  * Stores the `l = max(0, floor(log2(u/n)))` low bits of each element in a
  * packed array, and the high bits as a unary-coded bitvector. `apply(i)`
  * is one select1 on the high bits. [[predecessor]] gives the rank of `v`
  * (elements <= v) and the largest element <= v from one select0, which
  * finds the bucket of v's high part, and a scan of the bucket's low bits;
  * `rank(v)` is its rank half. Both are static kernels of the companion
  * over the high and low words, which a caller that holds those arrays
  * calls directly.
  */
final class EliasFano private[repro] (
    val length: Int,
    private[repro] val lowBits: Int,
    private[repro] val lows: FixedWidthArray,
    private[repro] val highs: BitVector,
) {
  // the kernels take `length` for the number of set high bits and of low cells
  require(highs.countOnes == length && lows.length == length && lows.width == math.max(1, lowBits),
    s"${highs.countOnes} high bits set and ${lows.length} low cells of ${lows.width} bits for $length values")

  private[repro] val lastValue: Long = if (length == 0) -1L else apply(length - 1)
  private[repro] val firstValue: Long = if (length == 0) 0L else apply(0)

  def apply(i: Int): Long = EliasFano.get(highs.words, highs.blockRank, highs.length, lows.words, lowBits, length, i)

  /** Number of elements <= v. */
  def rank(v: Long): Int = predecessor(v).toInt

  /** The rank of `v` (elements <= v) in the low 32 bits, and the low 32
    * bits of its predecessor (the largest element <= v; 0 if there is none)
    * in the high 32 bits, so that nothing is allocated; see
    * [[EliasFano.predecessor]].
    */
  def predecessor(v: Long): Long =
    EliasFano.predecessor(highs.words, highs.blockRank, highs.length, lows.words, lowBits, length,
                          firstValue, lastValue, v)

  def sizeInBits: Long = 3L * 64 + lows.sizeInBits + highs.sizeInBits

  def toArray: Array[Long] = Array.tabulate(length)(apply)
}

object EliasFano {

  /** Element i of `length` elements whose high parts are the bitvector
    * (`highWords`, `highRanks`, `highLength`) and whose `lowBits` low bits
    * are packed in `lowWords`: one select1 and, if `lowBits > 0`, one cell.
    */
  private[repro] def get(highWords: Array[Long], highRanks: Array[Long], highLength: Long,
                         lowWords: Array[Long], lowBits: Int, length: Int, i: Int): Long = {
    if (i < 0 || i >= length) Check.fail(s"index $i out of [0, $length)")
    val high = BitVector.select1(highWords, highRanks, highLength, length, i) - i
    val low = if (lowBits == 0) 0L else FixedWidthArray.get(lowWords, lowBits, length, i)
    (high << lowBits) | low
  }

  /** The rank of `v` in the low and its predecessor's low 32 bits in the
    * high 32 bits, for the elements laid out as in [[get]], whose first and
    * last are `first` and `last`. The predecessor is exact for elements
    * below 2^32, such as S's fragment starts. It is the last element of v's
    * bucket that the scan passes or, if the scan passes none, the last
    * element of an earlier bucket, whose high part is read off the last set
    * bit before v's bucket.
    */
  private[repro] def predecessor(highWords: Array[Long], highRanks: Array[Long], highLength: Long,
                                 lowWords: Array[Long], lowBits: Int, length: Int,
                                 first: Long, last: Long, v: Long): Long = {
    if (length == 0 || v < first) return 0L
    if (v >= last) return (last << 32) | length
    val h = v >>> lowBits
    val vLow = v & ((1L << lowBits) - 1)
    // elements with high < h sit before the h-th zero (1-based) of the highs;
    // v < last, so a zero or a larger element ends the bucket in range
    val bucket = if (h == 0) 0L else BitVector.select0(highWords, highRanks, highLength, length, h - 1) + 1
    var pos = bucket
    var i = (pos - h).toInt // element index = ones before pos
    var low = -1L // low bits of the last element of the bucket that is <= v
    var scanning = true
    while (scanning && ((highWords((pos >>> 6).toInt) >>> pos) & 1L) != 0) {
      val elemLow = if (lowBits == 0) 0L else FixedWidthArray.get(lowWords, lowBits, length, i)
      if (elemLow <= vLow) { low = elemLow; pos += 1; i += 1 }
      else scanning = false
    }
    val pred =
      if (low >= 0) (h << lowBits) | low
      else { // v >= first, so element i - 1 exists and its bit precedes the bucket
        var w = ((bucket - 1) >>> 6).toInt
        var word = highWords(w) & (-1L >>> (63 - ((bucket - 1) & 63).toInt))
        while (word == 0) { w -= 1; word = highWords(w) }
        val high = w.toLong * 64 + 63 - java.lang.Long.numberOfLeadingZeros(word) - (i - 1)
        (high << lowBits) | (if (lowBits == 0) 0L else FixedWidthArray.get(lowWords, lowBits, length, i - 1))
      }
    (pred << 32) | i
  }

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
