package repro.core.neats

import java.nio.{ByteBuffer, ByteOrder}
import java.util.zip.CRC32C
import repro.core.approx.FunctionKind
import repro.core.bits.{BitReader, BitVector, EliasFano, FixedWidthArray, WaveletTree}

/** A blob or a table index that is not well formed. For a blob: wrong magic
  * or version, a length or checksum that does not match, or structures whose
  * lengths disagree. For a `NeaTSFiles` table: an index whose groups do not
  * tile the series, or a group blob that does not hold its group's count.
  */
final class CorruptBlobException(message: String) extends RuntimeException(message)

/** Blob format version 1: the words of the succinct structures of a
  * [[NeaTSCompressed]] as they sit in memory, in one little-endian image,
  * so that loading copies word arrays and wraps them instead of rebuilding
  * Elias-Fano and wavelet structures from plain values. C, the corrections
  * and most of the bytes, is not copied at all: the loaded layout reads it
  * where it sits in the blob, as a [[BitReader]] over the blob's array. C
  * starts at a multiple of 8 bytes, so its word loads are aligned.
  *
  * Fields in order (`words(k)`: the ceil(k / 64) int64 words that hold k
  * bits, which is exactly what every in-memory word array holds):
  *
  *  - header: int32 magic ("NeTS"), int32 version (1), int32 total length
  *    in bytes with the checksum, int32 n, int64 shift;
  *  - S: int32 length, int32 lowBits l, int64 high-bits length h,
  *    words(length * max(1, l)) of low bits, words(h) of high bits;
  *  - B: int32 length, int32 width w, words(length * w);
  *  - O: an Elias-Fano sequence laid out as S;
  *  - C: int64 length in bits c, words(c);
  *  - K: int32 length, int32 sigma (= 4, the number of kinds), then its
  *    two wavelet levels as words(length) each;
  *  - P: int32 count (= 4), then per kind id an int32 length and that many
  *    int64 raw IEEE-754 bits;
  *  - int32 CRC32C of every byte before it.
  */
private[neats] object BlobFormat {
  private val Magic = 0x5354654e // the bytes 'N' 'e' 'T' 'S'
  private val Version = 1
  private val HeaderBytes = 24
  private val CrcBytes = 4

  private def wordsFor(bits: Long): Long = (bits + 63) >>> 6

  private def corrupt(message: String): Nothing = throw new CorruptBlobException(message)

  private def sizeOf(c: NeaTSCompressed): Int = {
    def ef(e: EliasFano) = 16L + 8L * (e.lows.words.length + e.highs.words.length)
    val bytes = HeaderBytes + ef(c.s) + 8L + 8L * c.b.words.length + ef(c.o) +
      8L + c.c.imageLength + 8L + 8L * (c.k.level0.words.length + c.k.level1.words.length) +
      4L + c.p.map(4L + 8L * _.length).sum + CrcBytes
    require(bytes <= Int.MaxValue, s"blob of $bytes bytes does not fit in an array")
    bytes.toInt
  }

  def write(c: NeaTSCompressed): Array[Byte] = {
    val size = sizeOf(c)
    val out = ByteBuffer.allocate(size).order(ByteOrder.LITTLE_ENDIAN)
    // the reader takes a structure's word count from its length in bits
    def words(ws: Array[Long], bits: Long): Unit = {
      require(ws.length == wordsFor(bits), s"${ws.length} words hold $bits bits")
      out.asLongBuffer().put(ws)
      out.position(out.position() + 8 * ws.length)
    }
    def eliasFano(e: EliasFano): Unit = {
      out.putInt(e.length).putInt(e.lowBits).putLong(e.highs.length)
      words(e.lows.words, e.length.toLong * e.lows.width)
      words(e.highs.words, e.highs.length)
    }
    out.putInt(Magic).putInt(Version).putInt(size).putInt(c.n).putLong(c.shift)
    eliasFano(c.s)
    out.putInt(c.b.length).putInt(c.b.width)
    words(c.b.words, c.b.length.toLong * c.b.width)
    eliasFano(c.o)
    out.putLong(c.c.lengthInBits)
    System.arraycopy(c.c.bytes, c.c.base, out.array, out.position(), c.c.imageLength)
    out.position(out.position() + c.c.imageLength)
    out.putInt(c.k.length).putInt(FunctionKind.sigma)
    words(c.k.level0.words, c.k.length)
    words(c.k.level1.words, c.k.length)
    out.putInt(c.p.length)
    c.p.foreach { pf =>
      out.putInt(pf.length)
      out.asDoubleBuffer().put(pf)
      out.position(out.position() + 8 * pf.length)
    }
    val crc = new CRC32C
    crc.update(out.array, 0, size - CrcBytes)
    out.putInt(crc.getValue.toInt)
    out.array
  }

  /** Bounds-checked reads over the blob's body: a field or array that would
    * run past the checksum is corrupt, and is found before it is allocated.
    * `what` names the structure in the message; it is a literal, so that a
    * good blob builds no strings.
    */
  private final class Reader(in: ByteBuffer) {
    private def need(bytes: Long, what: String): Unit =
      if (bytes > in.remaining) corrupt(s"$what needs $bytes bytes, ${in.remaining} left")

    def int(what: String): Int = { need(4, what); in.getInt() }

    def long(what: String): Long = { need(8, what); in.getLong() }

    def count(what: String): Int = {
      val v = int(what)
      if (v < 0) corrupt(s"$what has negative length $v")
      v
    }

    def words(bits: Long, what: String): Array[Long] = {
      if (bits < 0) corrupt(s"$what has negative length $bits")
      val count = wordsFor(bits)
      need(8 * count, what)
      val ws = new Array[Long](count.toInt)
      in.asLongBuffer().get(ws)
      in.position(in.position() + 8 * ws.length)
      ws
    }

    /** The words that hold `bits` bits, read where they sit in the blob. */
    def image(bits: Long, what: String): BitReader = {
      if (bits < 0) corrupt(s"$what has negative length $bits")
      need(8 * wordsFor(bits), what)
      val r = new BitReader(in.array, in.position(), bits)
      in.position(in.position() + r.imageLength)
      r
    }

    def doubles(count: Int, what: String): Array[Double] = {
      need(8L * count, what)
      val ds = new Array[Double](count)
      in.asDoubleBuffer().get(ds)
      in.position(in.position() + 8 * count)
      ds
    }

    def fixedWidth(length: Int, width: Int, what: String): FixedWidthArray = {
      if (width < 1 || width > 64) corrupt(s"$what has width $width")
      new FixedWidthArray(length, width, words(length.toLong * width, what))
    }

    def eliasFano(what: String): EliasFano = {
      val length = count(what)
      val lowBits = int(what)
      if (lowBits < 0 || lowBits > 63) corrupt(s"$what has $lowBits low bits")
      val highLen = long(what)
      val lows = fixedWidth(length, math.max(1, lowBits), what)
      val highs = new BitVector(words(highLen, what), highLen)
      if (highs.countOnes != length) corrupt(s"$what has ${highs.countOnes} high bits set for $length values")
      new EliasFano(length, lowBits, lows, highs)
    }

    def done: Boolean = in.remaining == 0
  }

  def read(bytes: Array[Byte]): NeaTSCompressed = {
    if (bytes.length < HeaderBytes + CrcBytes) corrupt(s"blob of ${bytes.length} bytes is shorter than a header")
    val buf = ByteBuffer.wrap(bytes).order(ByteOrder.LITTLE_ENDIAN)
    if (buf.getInt(0) != Magic) corrupt("bad magic: not a NeaTS blob")
    if (buf.getInt(4) != Version) corrupt(s"unsupported blob version ${buf.getInt(4)}")
    val size = buf.getInt(8)
    if (size != bytes.length) corrupt(s"declared length $size, blob has ${bytes.length} bytes")
    val crc = new CRC32C
    crc.update(bytes, 0, size - CrcBytes)
    if (crc.getValue.toInt != buf.getInt(size - CrcBytes)) corrupt("checksum mismatch")

    val n = buf.getInt(12)
    val shift = buf.getLong(16)
    if (n < 0) corrupt(s"negative length $n")
    val in = new Reader(buf.position(HeaderBytes).limit(size - CrcBytes))
    val s = in.eliasFano("S")
    val m = s.length
    val bLength = in.count("B")
    val b = in.fixedWidth(bLength, in.int("B"), "B")
    val o = in.eliasFano("O")
    val cBits = in.long("C")
    val c = in.image(cBits, "C")
    val kLength = in.count("K")
    val sigma = in.int("K")
    if (sigma != FunctionKind.sigma) corrupt(s"K has sigma $sigma, expected ${FunctionKind.sigma}")
    val level0 = new BitVector(in.words(kLength, "K"), kLength)
    val level1 = new BitVector(in.words(kLength, "K"), kLength)
    val k = new WaveletTree(kLength, level0, level1)
    val nP = in.count("P")
    if (nP != sigma) corrupt(s"$nP parameter arrays for $sigma kinds")
    if (bLength != m || kLength != m || o.length != m + 1)
      corrupt(s"$m fragments in S, but ${b.length} widths, $kLength kinds and ${o.length} offsets")
    val p = Array.tabulate(nP) { f =>
      val len = in.count("P")
      val expected = k.rank(f, m).toLong * FunctionKind.byId(f).nParams
      if (len != expected) corrupt(s"P_$f holds $len values, K asks for $expected")
      in.doubles(len, "P")
    }
    if (!in.done) corrupt("bytes left after the last structure")
    if (o(m) != cBits) corrupt(s"offsets end at ${o(m)}, C holds $cBits bits")
    if (m > 0 && (s(0) != 0 || s(m - 1) >= n)) corrupt(s"fragment starts ${s(0)}..${s(m - 1)} do not cover [0, $n)")
    if (m == 0 && n > 0) corrupt(s"no fragments for $n values")
    new NeaTSCompressed(n, shift, s, b, o, c, k, p)
  }
}
