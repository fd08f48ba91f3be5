package repro.core.bits

/** Static bitvector with O(1) rank and O(log)-with-sampling select.
  *
  * Rank is supported by 512-bit superblock counters (one long per 8 words),
  * select1/select0 by binary search over the counters followed by an
  * in-block popcount scan — the classic Jacobson/Clark layout, simplified.
  */
final class BitVector(val words: Array[Long], val length: Long) {
  require(words.length.toLong * 64 >= length, "words too short for length")

  // blockRank(i) = number of 1s strictly before word 8*i: one popcount pass
  // over the words, which also gives countOnes.
  private val blockRank: Array[Long] = {
    val nBlocks = (words.length + 7) / 8 + 1
    val br = new Array[Long](nBlocks)
    var acc = 0L
    var w = 0
    while (w < words.length) {
      if (w % 8 == 0) br(w / 8) = acc
      acc += java.lang.Long.bitCount(words(w))
      w += 1
    }
    br(nBlocks - 1) = acc
    br
  }

  /** Total number of set bits. */
  val countOnes: Long = {
    var garbage = 0L // set bits at or beyond `length`, counted in blockRank
    var w = (length >>> 6).toInt
    while (w < words.length) { garbage += java.lang.Long.bitCount(words(w) ^ maskedWord(w)); w += 1 }
    blockRank(blockRank.length - 1) - garbage
  }

  // Last word with bits beyond `length` cleared (writers may leave garbage).
  private def maskedWord(w: Int): Long = {
    val hi = (w.toLong + 1) * 64
    if (hi <= length) words(w)
    else {
      val keep = (length - w.toLong * 64).toInt
      if (keep <= 0) 0L else words(w) & ((1L << keep) - 1)
    }
  }

  def apply(i: Long): Boolean = {
    if (i < 0 || i >= length) Check.fail(s"bit $i out of [0, $length)")
    ((words((i >>> 6).toInt) >>> (i & 63).toInt) & 1L) != 0
  }

  /** Number of 1s in positions [0, i). */
  def rank1(i: Long): Long = {
    if (i < 0 || i > length) Check.fail(s"rank pos $i out of [0, $length]")
    if (i == 0) return 0L
    val word = (i >>> 6).toInt
    var acc = blockRank(word / 8)
    var w = (word / 8) * 8
    while (w < word) { acc += java.lang.Long.bitCount(words(w)); w += 1 }
    val rem = (i & 63).toInt
    if (rem > 0) acc += java.lang.Long.bitCount(words(word) & ((1L << rem) - 1))
    acc
  }

  /** Position of the (j+1)-th set bit (0-based j); require j < countOnes. */
  def select1(j: Long): Long = {
    if (j < 0 || j >= countOnes) Check.fail(s"select1($j) with only $countOnes ones")
    // binary search superblocks on blockRank
    var lo = 0
    var hi = blockRank.length - 1
    while (lo < hi) { // find largest block with blockRank <= j
      val mid = (lo + hi + 1) >>> 1
      if (blockRank(mid) <= j) lo = mid else hi = mid - 1
    }
    var acc = blockRank(lo)
    var w = lo * 8
    while (true) {
      val pc = java.lang.Long.bitCount(maskedWord(w))
      if (acc + pc > j) {
        var word = maskedWord(w)
        var need = (j - acc).toInt
        while (need > 0) { word &= word - 1; need -= 1 }
        return w.toLong * 64 + java.lang.Long.numberOfTrailingZeros(word)
      }
      acc += pc
      w += 1
    }
    -1L // unreachable
  }

  /** Position of the (j+1)-th zero bit (0-based j). */
  def select0(j: Long): Long = {
    val zeros = length - countOnes
    if (j < 0 || j >= zeros) Check.fail(s"select0($j) with only $zeros zeros")
    var lo = 0
    var hi = blockRank.length - 1
    // zeros before block i = 512*i - blockRank(i) (monotone)
    while (lo < hi) {
      val mid = (lo + hi + 1) >>> 1
      val zBefore = math.min(mid.toLong * 512, length) - blockRank(mid)
      if (zBefore <= j) lo = mid else hi = mid - 1
    }
    var acc = math.min(lo.toLong * 512, length) - blockRank(lo)
    var w = lo * 8
    while (true) {
      val validBits = math.max(0L, math.min(64L, length - w.toLong * 64)).toInt
      val word = ~maskedWord(w) & (if (validBits == 64) -1L else (1L << validBits) - 1)
      val pc = java.lang.Long.bitCount(word)
      if (acc + pc > j) {
        var ww = word
        var need = (j - acc).toInt
        while (need > 0) { ww &= ww - 1; need -= 1 }
        return w.toLong * 64 + java.lang.Long.numberOfTrailingZeros(ww)
      }
      acc += pc
      w += 1
    }
    -1L
  }

  def sizeInBits: Long = words.length.toLong * 64 + blockRank.length.toLong * 64
}

object BitVector {
  def fromBooleans(bits: Seq[Boolean]): BitVector = {
    val w = new BitWriter()
    bits.foreach(b => w.appendBit(b))
    new BitVector(w.words, w.lengthInBits)
  }
}
