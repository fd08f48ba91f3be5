package repro.core.bits

/** Static bitvector with O(1) rank and O(log n) select.
  *
  * Rank is supported by 512-bit superblock counters (one long per 8 words).
  * select1/select0 binary-search the counters (there are no select
  * samples), scan the superblock's words by popcount, and find the bit in
  * the word with Vigna's broadword select ([[BitVector.selectInWord]]).
  * Each query is a static kernel in the companion over the words, the
  * counters and the scalars: the methods here pass their own, and a caller
  * that holds those arrays (`NeaTSCompressed`) calls the kernel without
  * going through this object.
  */
final class BitVector(val words: Array[Long], val length: Long) {
  require(words.length.toLong * 64 >= length, "words too short for length")

  // blockRank(i) = number of 1s strictly before word 8*i: one popcount pass
  // over the words, which also gives countOnes.
  private[repro] val blockRank: Array[Long] = {
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
    while (w < words.length) { garbage += java.lang.Long.bitCount(words(w) & ~BitVector.validBits(length, w)); w += 1 }
    blockRank(blockRank.length - 1) - garbage
  }

  def apply(i: Long): Boolean = BitVector.get(words, length, i)

  /** Number of 1s in positions [0, i). */
  def rank1(i: Long): Long = BitVector.rank1(words, blockRank, length, i)

  /** Position of the (j+1)-th set bit (0-based j); require j < countOnes. */
  def select1(j: Long): Long = BitVector.select1(words, blockRank, length, countOnes, j)

  /** Position of the (j+1)-th zero bit (0-based j). */
  def select0(j: Long): Long = BitVector.select0(words, blockRank, length, countOnes, j)

  def sizeInBits: Long = words.length.toLong * 64 + blockRank.length.toLong * 64
}

object BitVector {
  private val OnesStep4 = 0x1111111111111111L
  private val OnesStep8 = 0x0101010101010101L
  private val MsbsStep8 = 0x80L * OnesStep8

  // The bits of word w below `length` (writers may leave garbage beyond it).
  private def validBits(length: Long, w: Int): Long = {
    val keep = length - w.toLong * 64
    if (keep >= 64) -1L else if (keep <= 0) 0L else (1L << keep) - 1
  }

  /** Bit i of a bitvector of `length` bits held in `words`. */
  private[repro] def get(words: Array[Long], length: Long, i: Long): Boolean = {
    if (i < 0 || i >= length) Check.fail(s"bit $i out of [0, $length)")
    ((words((i >>> 6).toInt) >>> (i & 63).toInt) & 1L) != 0
  }

  /** Number of 1s in positions [0, i) of `words`, whose superblock counters
    * are `ranks`.
    */
  private[repro] def rank1(words: Array[Long], ranks: Array[Long], length: Long, i: Long): Long = {
    if (i < 0 || i > length) Check.fail(s"rank pos $i out of [0, $length]")
    if (i == 0) return 0L
    val word = (i >>> 6).toInt
    var acc = ranks(word / 8)
    var w = (word / 8) * 8
    while (w < word) { acc += java.lang.Long.bitCount(words(w)); w += 1 }
    val rem = (i & 63).toInt
    if (rem > 0) acc += java.lang.Long.bitCount(words(word) & ((1L << rem) - 1))
    acc
  }

  /** Position of the (j+1)-th set bit (0-based j) of `words`, which hold
    * `ones` set bits below `length`.
    */
  private[repro] def select1(words: Array[Long], ranks: Array[Long], length: Long, ones: Long, j: Long): Long = {
    if (j < 0 || j >= ones) Check.fail(s"select1($j) with only $ones ones")
    // binary search superblocks on ranks
    var lo = 0
    var hi = ranks.length - 1
    while (lo < hi) { // find largest block with ranks <= j
      val mid = (lo + hi + 1) >>> 1
      if (ranks(mid) <= j) lo = mid else hi = mid - 1
    }
    var acc = ranks(lo)
    var w = lo * 8
    while (true) {
      val word = words(w) & validBits(length, w)
      val pc = java.lang.Long.bitCount(word)
      if (acc + pc > j) return w.toLong * 64 + selectInWord(word, (j - acc).toInt)
      acc += pc
      w += 1
    }
    -1L // unreachable
  }

  /** Position of the (j+1)-th zero bit (0-based j) of `words`, which hold
    * `ones` set bits below `length`.
    */
  private[repro] def select0(words: Array[Long], ranks: Array[Long], length: Long, ones: Long, j: Long): Long = {
    val zeros = length - ones
    if (j < 0 || j >= zeros) Check.fail(s"select0($j) with only $zeros zeros")
    // zeros before block i = 512*i - ranks(i) (monotone), over the blocks
    // that start below `length`: the zero is there, and the counters of
    // later blocks include any garbage set past `length`
    var lo = 0
    var hi = ((length - 1) >>> 9).toInt
    while (lo < hi) {
      val mid = (lo + hi + 1) >>> 1
      if (mid.toLong * 512 - ranks(mid) <= j) lo = mid else hi = mid - 1
    }
    var acc = lo.toLong * 512 - ranks(lo)
    var w = lo * 8
    while (true) {
      val word = ~words(w) & validBits(length, w)
      val pc = java.lang.Long.bitCount(word)
      if (acc + pc > j) return w.toLong * 64 + selectInWord(word, (j - acc).toInt)
      acc += pc
      w += 1
    }
    -1L
  }

  /** selectInByte(b | r << 8): position of the (r+1)-th set bit of byte b,
    * for r in [0, 8) (0 where b has fewer set bits); 2 KiB.
    */
  private val selectInByte: Array[Byte] = {
    val t = new Array[Byte](2048)
    for (b <- 0 until 256; r <- 0 until 8) {
      var x = b
      var k = 0
      while (k < r && x != 0) { x &= x - 1; k += 1 }
      if (x != 0) t(b | r << 8) = Integer.numberOfTrailingZeros(x).toByte
    }
    t
  }

  /** Position of the (r+1)-th set bit of `x` (0-based r < bitCount(x)),
    * branch-free: Vigna's broadword select ("Broadword Implementation of
    * Rank/Select Queries", WEA 2008). Byte-wise popcounts, summed by one
    * multiply, are compared with r in all eight bytes at once to find the
    * byte that holds the bit; a table lookup finds it within the byte.
    */
  private[bits] def selectInWord(x: Long, r: Int): Int = {
    var byteSums = x - ((x & 0xa * OnesStep4) >>> 1)
    byteSums = (byteSums & 3 * OnesStep4) + ((byteSums >>> 2) & 3 * OnesStep4)
    byteSums = (byteSums + (byteSums >>> 4)) & 0x0f * OnesStep8
    byteSums *= OnesStep8 // byte i: set bits in bytes 0..i
    val byteOffset = ((((((r * OnesStep8) | MsbsStep8) - byteSums) & MsbsStep8) >>> 7) * OnesStep8 >>> 53) & ~0x7L
    val byteRank = r - (((byteSums << 8) >>> byteOffset) & 0xffL).toInt
    (byteOffset + selectInByte(((x >>> byteOffset) & 0xffL).toInt | byteRank << 8)).toInt
  }

  def fromBooleans(bits: Seq[Boolean]): BitVector = {
    val w = new BitWriter()
    bits.foreach(b => w.appendBit(b))
    new BitVector(w.words, w.lengthInBits)
  }
}
