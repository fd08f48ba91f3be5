package repro.core.bits

/** Balanced wavelet tree over a small integer alphabet [0, sigma).
  *
  * Used by the NeaTS layout to represent the function-kind string K and
  * answer `rank(sym, i)` — occurrences of `sym` in K[0, i) — in
  * O(log sigma) time, as required to locate a fragment's parameters in
  * the per-kind parameter arrays P_f. [[inverseSelect]] gives a
  * fragment's kind and that rank together, from one descent; for K's
  * alphabet (sigma = 4) the descent is a static kernel of the companion
  * over the two levels' words and counters.
  */
final class WaveletTree private[repro] (
    val length: Int,
    val sigma: Int,
    private[repro] val levels: Array[BitVector],
) {
  /** Symbol at position i. */
  def apply(i: Int): Int = (inverseSelect(i) >>> 32).toInt

  /** Occurrences of `sym` in positions [0, i). */
  def rank(sym: Int, i: Int): Int = {
    if (sym < 0 || sym >= sigma) Check.fail(s"symbol $sym out of [0, $sigma)")
    if (i < 0 || i > length) Check.fail(s"rank pos $i out of [0, $length]")
    descend(i, sym).toInt
  }

  /** The symbol at position i in the high 32 bits and its occurrences in
    * [0, i) in the low 32 bits, from one descent: the position reached in
    * the leaf is that rank.
    */
  def inverseSelect(i: Int): Long =
    if (sigma == 4) {
      val l0 = levels(0)
      val l1 = levels(1)
      WaveletTree.inverseSelect(length, l0.words, l0.blockRank, l0.countOnes, l1.words, l1.blockRank, i)
    } else {
      if (i < 0 || i >= length) Check.fail(s"index $i out of [0, $length)")
      descend(i, -1)
    }

  /** Descends from the root with position i, toward the leaf of `sym`, or
    * along the bits at the position when `sym` is negative; returns the
    * leaf's symbol in the high and the position in it in the low 32 bits.
    * Rank counters at a node's start are skipped where it starts at 0, and
    * the node length is found only where a child below is not a leaf.
    */
  private def descend(i: Int, sym: Int): Long = {
    var lo = 0
    var hi = sigma // [lo, hi) alphabet range of current node
    var pos = i.toLong
    var offset = 0L // start of current node's interval in the level bitvector
    var nodeLen = length.toLong
    var level = 0
    // a rank query ends early once no occurrence is left before pos
    while (hi - lo > 1 && (pos > 0 || sym < 0)) {
      val bv = levels(level)
      val onesAtOffset = if (offset == 0) 0L else bv.rank1(offset)
      val onesBefore = bv.rank1(offset + pos) - onesAtOffset
      val mid = (lo + hi + 1) / 2
      val right = if (sym < 0) bv(offset + pos) else sym >= mid
      if (right) lo = mid else hi = mid
      if (hi - lo > 1) {
        val end = offset + nodeLen
        val onesTotal = (if (end == bv.length) bv.countOnes else bv.rank1(end)) - onesAtOffset
        if (right) { offset += nodeLen - onesTotal; nodeLen = onesTotal }
        else nodeLen -= onesTotal
      }
      pos = if (right) onesBefore else pos - onesBefore
      level += 1
    }
    (lo.toLong << 32) | pos
  }

  def sizeInBits: Long = 2L * 32 + levels.map(_.sizeInBits).sum

  def toArray: Array[Int] = Array.tabulate(length)(apply)
}

object WaveletTree {
  /** Levels of the tree over [0, sigma): ceil(log2 sigma), at least 1. */
  private[repro] def heightFor(sigma: Int): Int =
    math.max(1, 32 - Integer.numberOfLeadingZeros(math.max(1, sigma - 1)))

  /** [[WaveletTree.inverseSelect]] for sigma = 4, the tree of K: two levels
    * of `length` bits, (`words0`, `ranks0`) with `ones0` set bits and
    * (`words1`, `ranks1`). The root sends a symbol to [0, 2) or [2, 4); at
    * level 1, the node [0, 2) starts at 0 and [2, 4) at the zeros of level
    * 0, and both children are leaves.
    */
  private[repro] def inverseSelect(length: Int, words0: Array[Long], ranks0: Array[Long], ones0: Long,
                                   words1: Array[Long], ranks1: Array[Long], i: Int): Long = {
    if (i < 0 || i >= length) Check.fail(s"index $i out of [0, $length)")
    val n = length.toLong
    val right0 = BitVector.get(words0, n, i)
    val ones = BitVector.rank1(words0, ranks0, n, i)
    val offset = if (right0) n - ones0 else 0L
    val pos = if (right0) ones else i - ones
    val onesAtOffset = if (offset == 0) 0L else BitVector.rank1(words1, ranks1, n, offset)
    val onesBefore = BitVector.rank1(words1, ranks1, n, offset + pos) - onesAtOffset
    val right1 = BitVector.get(words1, n, offset + pos)
    val sym = (if (right0) 2L else 0L) + (if (right1) 1L else 0L)
    (sym << 32) | (if (right1) onesBefore else pos - onesBefore)
  }

  def apply(symbols: Array[Int], sigma: Int): WaveletTree = {
    require(symbols.forall(s => s >= 0 && s < sigma), "symbol out of range")
    require(sigma >= 1)
    val height = heightFor(sigma)
    val levels = new Array[BitVector](height)
    // Each level is a full-length (n-bit) concatenation of the node intervals
    // left-to-right; a bit is 1 if the symbol goes to the right child of its
    // node (>= mid of its range). Leaf intervals are kept in place as zero
    // padding so that child offsets stay positional (left child starts at the
    // parent's offset, right child at offset + zeros) at every level.
    var nodes: List[(Array[Int], Int, Int)] = List((symbols, 0, sigma)) // (seq, lo, hi)
    var level = 0
    while (level < height) {
      val w = new BitWriter()
      val next = scala.collection.mutable.ListBuffer[(Array[Int], Int, Int)]()
      for ((seq, lo, hi) <- nodes) {
        if (hi - lo > 1) {
          val mid = (lo + hi + 1) / 2
          seq.foreach(s => w.appendBit(s >= mid))
          next += ((seq.filter(_ < mid), lo, mid))
          next += ((seq.filter(_ >= mid), mid, hi))
        } else {
          w.appendZeros(seq.length.toLong) // leaf padding keeps offsets aligned
          next += ((seq, lo, hi))
        }
      }
      levels(level) = new BitVector(w.words, w.lengthInBits)
      nodes = next.toList
      level += 1
    }
    new WaveletTree(symbols.length, sigma, levels)
  }
}
