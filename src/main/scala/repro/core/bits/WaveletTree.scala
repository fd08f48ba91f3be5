package repro.core.bits

/** The wavelet tree of the NeaTS function-kind string K, over its four
  * kinds: two levels of `length` bits.
  *
  *  - `level0` holds, per position, whether its kind is 2 or 3;
  *  - `level1` holds `kind & 1` of the positions of kinds 0 and 1, in order,
  *    then of those of kinds 2 and 3: the node [0, 2) starts at 0 and the
  *    node [2, 4) at the zeros of level 0, and both children are leaves.
  *
  * `rank(sym, i)`, the occurrences of `sym` in K[0, i), locates a
  * fragment's parameters in the per-kind parameter arrays P_f;
  * [[inverseSelect]] gives a fragment's kind and that rank together. Both
  * are one descent, a static kernel of the companion over the two levels'
  * words and counters.
  */
final class WaveletTree private[repro] (
    val length: Int,
    private[repro] val level0: BitVector,
    private[repro] val level1: BitVector,
) {
  /** Symbol at position i. */
  def apply(i: Int): Int = (inverseSelect(i) >>> 32).toInt

  /** Occurrences of `sym` in positions [0, i). */
  def rank(sym: Int, i: Int): Int =
    WaveletTree.rank(length, level0.words, level0.blockRank, level0.countOnes,
                     level1.words, level1.blockRank, sym, i)

  /** The symbol at position i in the high 32 bits and its occurrences in
    * [0, i) in the low 32 bits.
    */
  def inverseSelect(i: Int): Long =
    WaveletTree.inverseSelect(length, level0.words, level0.blockRank, level0.countOnes,
                              level1.words, level1.blockRank, i)

  def sizeInBits: Long = 2L * 32 + level0.sizeInBits + level1.sizeInBits

  def toArray: Array[Int] = Array.tabulate(length)(apply)
}

object WaveletTree {

  /** Descends K's two levels, (`words0`, `ranks0`) with `ones0` set bits and
    * (`words1`, `ranks1`), from position i: to kinds 2 and 3 when `right0`,
    * else to kinds 0 and 1, then to the odd kind when `odd` is 1, the even
    * one when it is 0, or along the bit at the position in level 1 when it
    * is negative. Returns the leaf's symbol in the high and the position in
    * it, the symbol's occurrences before i, in the low 32 bits.
    *
    * [[inverseSelect]] reads the bit of level 0 itself: with both bit reads
    * here, C2 compiled this method to more than `InlineSmallCode` (2,500
    * bytes on x86-64, JDK 17), and lookups called it instead of inlining it,
    * 5 % slower per lookup.
    */
  private def descend(length: Int, words0: Array[Long], ranks0: Array[Long], ones0: Long,
                      words1: Array[Long], ranks1: Array[Long], i: Int, right0: Boolean, odd: Int): Long = {
    val n = length.toLong
    val ones = BitVector.rank1(words0, ranks0, n, i)
    val offset = if (right0) n - ones0 else 0L
    val pos = if (right0) ones else i - ones
    val onesAtOffset = if (offset == 0) 0L else BitVector.rank1(words1, ranks1, n, offset)
    val onesBefore = BitVector.rank1(words1, ranks1, n, offset + pos) - onesAtOffset
    val right1 = if (odd < 0) BitVector.get(words1, n, offset + pos) else odd != 0
    val leaf = (if (right0) 2L else 0L) + (if (right1) 1L else 0L)
    (leaf << 32) | (if (right1) onesBefore else pos - onesBefore)
  }

  /** [[WaveletTree.inverseSelect]] over the words and counters of the two
    * levels (see [[descend]]).
    */
  private[repro] def inverseSelect(length: Int, words0: Array[Long], ranks0: Array[Long], ones0: Long,
                                   words1: Array[Long], ranks1: Array[Long], i: Int): Long = {
    if (i < 0 || i >= length) Check.fail(s"index $i out of [0, $length)")
    descend(length, words0, ranks0, ones0, words1, ranks1, i, BitVector.get(words0, length, i), -1)
  }

  /** [[WaveletTree.rank]] over the words and counters of the two levels. */
  private[repro] def rank(length: Int, words0: Array[Long], ranks0: Array[Long], ones0: Long,
                          words1: Array[Long], ranks1: Array[Long], sym: Int, i: Int): Int = {
    if (sym < 0 || sym >= 4) Check.fail(s"symbol $sym out of [0, 4)")
    if (i < 0 || i > length) Check.fail(s"rank pos $i out of [0, $length]")
    descend(length, words0, ranks0, ones0, words1, ranks1, i, sym >= 2, sym & 1).toInt
  }

  /** K over `symbols`, each in [0, sigma); sigma must be 4. */
  def apply(symbols: Array[Int], sigma: Int): WaveletTree = {
    require(sigma == 4, s"K is a string over 4 kinds, not $sigma")
    require(symbols.forall(s => s >= 0 && s < 4), "symbol out of range")
    val w0 = new BitWriter()
    val w1 = new BitWriter()
    symbols.foreach(s => w0.appendBit(s >= 2))
    symbols.foreach(s => if (s < 2) w1.appendBit((s & 1) != 0))
    symbols.foreach(s => if (s >= 2) w1.appendBit((s & 1) != 0))
    new WaveletTree(symbols.length, new BitVector(w0.words, w0.lengthInBits),
                    new BitVector(w1.words, w1.lengthInBits))
  }
}
