package repro.core.bits

/** Immutable array of `n` cells of exactly `width` bits each, O(1) access.
  *
  * The cell width is chosen by the caller (typically just enough for the
  * largest stored value, as the NeaTS layout prescribes for S/B/K/P).
  */
final class FixedWidthArray private[repro] (val length: Int, val width: Int, reader: BitReader) {
  /** The packed cells, `ceil(length * width / 64)` words. */
  private[repro] def words: Array[Long] = reader.words

  def apply(i: Int): Long = {
    if (i < 0 || i >= length) Check.fail(s"index $i out of [0, $length)")
    reader.get(i.toLong * width, width)
  }

  def sizeInBits: Long = 2L * 32 + length.toLong * width

  def toArray: Array[Long] = Array.tabulate(length)(apply)
}

object FixedWidthArray {
  /** Smallest width able to hold `v` (unsigned); 1 for v == 0. */
  def bitsFor(v: Long): Int = {
    require(v >= 0, s"negative $v")
    math.max(1, 64 - java.lang.Long.numberOfLeadingZeros(v))
  }

  def apply(values: Array[Long], width: Int): FixedWidthArray = {
    val w = new BitWriter(math.max(1, ((values.length.toLong * width + 63) / 64).toInt))
    var i = 0
    while (i < values.length) { w.append(values(i), width); i += 1 }
    new FixedWidthArray(values.length, width, new BitReader(w.words, w.lengthInBits))
  }
}
