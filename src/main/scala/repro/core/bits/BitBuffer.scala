package repro.core.bits

/** Growable little-endian (LSB-first) bit writer backed by `Array[Long]`.
  *
  * Bits are appended with [[append]]; the packed words are exposed via
  * [[words]]/[[lengthInBits]] and are readable with [[BitReader]] at any
  * bit offset. This is the common substrate of every succinct structure
  * in this package (packed corrections, Elias-Fano, wavelet trees, ...).
  */
final class BitWriter(initialWords: Int = 16) {
  private var buf: Array[Long] = new Array[Long](math.max(1, initialWords))
  private var bitLen: Long = 0L

  private def ensure(words: Int): Unit =
    if (words > buf.length) {
      var cap = buf.length
      while (cap < words) cap *= 2
      buf = java.util.Arrays.copyOf(buf, cap)
    }

  /** Append the `width` low bits of `value` (0 <= width <= 64). */
  def append(value: Long, width: Int): Unit = {
    require(width >= 0 && width <= 64, s"bad width $width")
    if (width == 0) return
    val v = if (width == 64) value else value & ((1L << width) - 1)
    val wordIdx = (bitLen >>> 6).toInt
    val bitIdx = (bitLen & 63).toInt
    ensure(wordIdx + 2)
    buf(wordIdx) |= v << bitIdx
    if (bitIdx + width > 64) buf(wordIdx + 1) |= v >>> (64 - bitIdx)
    bitLen += width
  }

  /** Append a single bit. */
  def appendBit(bit: Boolean): Unit = append(if (bit) 1L else 0L, 1)

  def lengthInBits: Long = bitLen

  /** A tight copy of the underlying words (just enough to hold all bits). */
  def words: Array[Long] = java.util.Arrays.copyOf(buf, ((bitLen + 63) >>> 6).toInt)
}

/** Random-access reader over bits packed by [[BitWriter]]; the reads are
  * the static kernels of the companion.
  */
final class BitReader(val words: Array[Long], val lengthInBits: Long) {

  /** Read `width` bits starting at bit offset `pos` (unsigned). */
  def get(pos: Long, width: Int): Long = BitReader.get(words, pos, width)

  /** Read `width` bits at `pos` as a signed (two's complement) value. */
  def getSigned(pos: Long, width: Int): Long = BitReader.getSigned(words, pos, width)

  def getBit(pos: Long): Boolean = ((words((pos >>> 6).toInt) >>> (pos & 63).toInt) & 1L) != 0
}

object BitReader {

  /** The `width` bits of `words` at bit offset `pos` (unsigned). */
  private[repro] def get(words: Array[Long], pos: Long, width: Int): Long = {
    if (width < 0 || width > 64) Check.fail(s"bad width $width")
    if (width == 0) return 0L
    val wordIdx = (pos >>> 6).toInt
    val bitIdx = (pos & 63).toInt
    var v = words(wordIdx) >>> bitIdx
    if (bitIdx + width > 64) v |= words(wordIdx + 1) << (64 - bitIdx)
    if (width == 64) v else v & ((1L << width) - 1)
  }

  /** The `width` bits of `words` at `pos` as a signed (two's complement) value. */
  private[repro] def getSigned(words: Array[Long], pos: Long, width: Int): Long = {
    if (width == 0) return 0L
    val raw = get(words, pos, width)
    val shift = 64 - width
    (raw << shift) >> shift
  }
}
