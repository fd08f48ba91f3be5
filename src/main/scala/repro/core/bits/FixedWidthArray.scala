package repro.core.bits

/** Immutable array of `n` cells of exactly `width` bits each (1 to 64), O(1)
  * access.
  *
  * The cell width is chosen by the caller (typically just enough for the
  * largest stored value). The NeaTS layout holds B, the correction widths,
  * in one, and every Elias-Fano sequence its low bits. The
  * packed cells are `ceil(length * width / 64)` words, read in place by
  * the static kernel [[FixedWidthArray.get]].
  */
final class FixedWidthArray private[repro] (val length: Int, val width: Int, private[repro] val words: Array[Long]) {

  def apply(i: Int): Long = FixedWidthArray.get(words, width, length, i)

  def sizeInBits: Long = 2L * 32 + length.toLong * width

  def toArray: Array[Long] = Array.tabulate(length)(apply)
}

object FixedWidthArray {
  /** Smallest width able to hold `v` (unsigned); 1 for v == 0. */
  def bitsFor(v: Long): Int = {
    require(v >= 0, s"negative $v")
    math.max(1, 64 - java.lang.Long.numberOfLeadingZeros(v))
  }

  /** Cell i of `length` cells of `width` bits packed in `words`. */
  private[repro] def get(words: Array[Long], width: Int, length: Int, i: Int): Long = {
    if (i < 0 || i >= length) Check.fail(s"index $i out of [0, $length)")
    val pos = i.toLong * width
    val w = (pos >>> 6).toInt
    val bit = (pos & 63).toInt
    var v = words(w) >>> bit
    if (bit + width > 64) v |= words(w + 1) << (64 - bit)
    v & (-1L >>> (64 - width))
  }

  def apply(values: Array[Long], width: Int): FixedWidthArray = {
    require(width >= 1 && width <= 64, s"bad width $width")
    val w = new BitWriter(math.max(1, ((values.length.toLong * width + 63) / 64).toInt))
    var i = 0
    while (i < values.length) { w.append(values(i), width); i += 1 }
    new FixedWidthArray(values.length, width, w.words)
  }
}
