package repro.core.bits

/** Growable little-endian (LSB-first) bit writer backed by `Array[Long]`.
  *
  * Bits are appended with [[append]]; the packed words are exposed via
  * [[words]]/[[lengthInBits]], and as a little-endian byte image, which
  * [[BitReader]] reads at any bit offset, via [[image]]/[[reader]]. This is
  * the common substrate of every succinct structure in this package (packed
  * corrections, Elias-Fano, wavelet trees, ...).
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
  def words: Array[Long] = java.util.Arrays.copyOf(buf, BitReader.wordsFor(bitLen))

  /** The same words as a little-endian byte image, 8 bytes per word. */
  def image: Array[Byte] = {
    val n = BitReader.wordsFor(bitLen)
    require(n <= Int.MaxValue / 8, s"$bitLen bits do not fit in a byte array")
    val out = new Array[Byte](8 * n)
    var i = 0
    while (i < n) { LittleEndian.set(out, 8 * i, buf(i)); i += 1 }
    out
  }

  /** A reader over [[image]]. */
  def reader: BitReader = new BitReader(image, 0, bitLen)
}

/** Random-access reader over a little-endian bit image: bit `pos` is bit
  * `pos % 64` of the 64-bit little-endian word at byte `base + 8 * (pos / 64)`
  * of `bytes`, for `pos` in [0, lengthInBits). The image holds exactly
  * `ceil(lengthInBits / 64)` words; `bytes` may hold more around them, as a
  * blob does around its corrections, and the reader never copies them. The
  * reads are the static kernels of the companion, and every one is a
  * whole-word load of `LittleEndian.get`.
  */
final class BitReader(val bytes: Array[Byte], val base: Int, val lengthInBits: Long) {
  if (base < 0 || lengthInBits < 0 || base + 8 * ((lengthInBits + 63) >>> 6) > bytes.length)
    Check.fail(s"$lengthInBits bits at byte $base do not fit in ${bytes.length} bytes")

  /** Bytes of the image: 8 per word. */
  def imageLength: Int = 8 * BitReader.wordsFor(lengthInBits)

  /** Read `width` bits starting at bit offset `pos` (unsigned). */
  def get(pos: Long, width: Int): Long = BitReader.get(bytes, base, pos, width)

  /** Read `width` bits at `pos` as a signed (two's complement) value. */
  def getSigned(pos: Long, width: Int): Long = BitReader.getSigned(bytes, base, pos, width)

  def getBit(pos: Long): Boolean = get(pos, 1) != 0
}

object BitReader {

  /** Words that hold `bits` bits. */
  private[bits] def wordsFor(bits: Long): Int = ((bits + 63) >>> 6).toInt

  /** The `width` bits of the image at bit offset `pos` (unsigned). */
  private[repro] def get(bytes: Array[Byte], base: Int, pos: Long, width: Int): Long = {
    if (width < 0 || width > 64) Check.fail(s"bad width $width")
    if (width == 0) return 0L
    val at = base + ((pos >>> 6) << 3).toInt
    val bit = (pos & 63).toInt
    var v = LittleEndian.get(bytes, at) >>> bit
    if (bit + width > 64) v |= LittleEndian.get(bytes, at + 8) << (64 - bit)
    if (width == 64) v else v & ((1L << width) - 1)
  }

  /** The `width` bits of the image at `pos` as a signed (two's complement) value. */
  private[repro] def getSigned(bytes: Array[Byte], base: Int, pos: Long, width: Int): Long = {
    if (width == 0) return 0L
    val raw = get(bytes, base, pos, width)
    val shift = 64 - width
    (raw << shift) >> shift
  }

  /** Adds to `out(from until until)` the signed `width`-bit values stored one
    * after the other from bit `pos` of the image (1 <= width <= 64), which
    * must lie inside the image. It reads through a running word: one load per
    * 64 bits, and none past the word that holds the last value's last bit.
    */
  private[repro] def addSigned(bytes: Array[Byte], base: Int, pos: Long, width: Int,
                               out: Array[Long], from: Int, until: Int): Unit = {
    if (width < 1 || width > 64) Check.fail(s"bad width $width")
    if (from >= until) return
    val shift = 64 - width
    var at = base + ((pos >>> 6) << 3).toInt
    var bit = (pos & 63).toInt
    var cur = LittleEndian.get(bytes, at)
    var i = from
    while (i < until) {
      var v = cur >>> bit
      bit += width
      if (bit >= 64) {
        bit -= 64
        // the value ends in the next word, or the next value starts there
        if (bit > 0 || i + 1 < until) { at += 8; cur = LittleEndian.get(bytes, at) }
        if (bit > 0) v |= cur << (width - bit)
      }
      out(i) += (v << shift) >> shift
      i += 1
    }
  }
}
