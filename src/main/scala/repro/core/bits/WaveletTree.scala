package repro.core.bits

/** Balanced wavelet tree over a small integer alphabet [0, sigma).
  *
  * Used by the NeaTS layout to represent the function-kind string K and
  * answer `rank(sym, i)` — occurrences of `sym` in K[0, i) — in
  * O(log sigma) time, as required to locate a fragment's parameters in
  * the per-kind parameter arrays P_f.
  */
final class WaveletTree private[repro] (
    val length: Int,
    val sigma: Int,
    private[repro] val levels: Array[BitVector],
) {
  private val height = levels.length

  /** Symbol at position i. */
  def apply(i: Int): Int = {
    if (i < 0 || i >= length) Check.fail(s"index $i out of [0, $length)")
    var lo = 0
    var hi = sigma // [lo, hi) alphabet range of current node
    var pos = i.toLong
    var offset = 0L // start of current node's interval in the level bitvector
    var nodeLen = length.toLong
    var level = 0
    while (hi - lo > 1) {
      val bv = levels(level)
      val onesBefore = bv.rank1(offset + pos) - bv.rank1(offset)
      val onesTotal = bv.rank1(offset + nodeLen) - bv.rank1(offset)
      val mid = (lo + hi + 1) / 2
      if (bv(offset + pos)) { // right child
        lo = mid
        pos = onesBefore
        offset = offset + (nodeLen - onesTotal)
        nodeLen = onesTotal
      } else { // left child
        hi = mid
        pos = pos - onesBefore
        nodeLen = nodeLen - onesTotal
      }
      level += 1
    }
    lo
  }

  /** Occurrences of `sym` in positions [0, i). */
  def rank(sym: Int, i: Int): Int = {
    if (sym < 0 || sym >= sigma) Check.fail(s"symbol $sym out of [0, $sigma)")
    if (i < 0 || i > length) Check.fail(s"rank pos $i out of [0, $length]")
    var lo = 0
    var hi = sigma
    var pos = i.toLong
    var offset = 0L
    var nodeLen = length.toLong
    var level = 0
    while (hi - lo > 1 && pos > 0) {
      val bv = levels(level)
      val onesBefore = bv.rank1(offset + pos) - bv.rank1(offset)
      val onesTotal = bv.rank1(offset + nodeLen) - bv.rank1(offset)
      val mid = (lo + hi + 1) / 2
      if (sym >= mid) {
        lo = mid
        pos = onesBefore
        offset = offset + (nodeLen - onesTotal)
        nodeLen = onesTotal
      } else {
        hi = mid
        pos = pos - onesBefore
        nodeLen = nodeLen - onesTotal
      }
      level += 1
    }
    if (hi - lo == 1) pos.toInt else 0
  }

  def sizeInBits: Long = 2L * 32 + levels.map(_.sizeInBits).sum

  def toArray: Array[Int] = Array.tabulate(length)(apply)
}

object WaveletTree {
  /** Levels of the tree over [0, sigma): ceil(log2 sigma), at least 1. */
  private[repro] def heightFor(sigma: Int): Int =
    math.max(1, 32 - Integer.numberOfLeadingZeros(math.max(1, sigma - 1)))

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
