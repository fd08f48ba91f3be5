package repro.core.neats

import repro.core.approx.FunctionKind
import repro.core.bits._

/** The NeaTS compressed representation <S, B, O, C, K, P> of a time series
  * (§III-C of the paper) plus the global value shift:
  *
  *  - S: Elias-Fano over fragment start positions (0-based), with rank;
  *  - B: fixed-width array of per-fragment correction bit widths;
  *  - O: Elias-Fano over cumulative correction bit offsets (m+1 entries);
  *  - C: packed correction bits (signed two's complement per value);
  *  - K: the two-level wavelet tree of the four-kind string, with rank_f;
  *  - P: per-kind concatenated parameter arrays (64-bit doubles).
  *
  * Supports full decompression (Algorithm 2), random access (Algorithm 3)
  * and range scans. A lookup walks each structure once: one predecessor
  * query on S gives the fragment and its start, one wavelet descent on K
  * gives its kind and the rank that locates its parameters, and one select
  * on O its correction offset. S's select0 and O's select1 binary-search
  * their superblock counters, O(log m), and S's bucket scan passes the few
  * starts that share the index's high bits; every other step is O(1) for
  * the fixed alphabet of kinds.
  *
  * A lookup reads the word arrays, superblock counters and scalars of S,
  * B, O and K's two levels, and C's byte image, from fields of its own and
  * calls the structures' static kernels on them ([[EliasFano.predecessor]],
  * [[WaveletTree.inverseSelect]], [[FixedWidthArray.get]],
  * [[EliasFano.get]], [[BitReader.getSigned]]), so that no call loads a
  * structure object, its bitvector and then its words in turn. They are
  * the structures' own arrays, so `sizeInBits` and the blob are unchanged,
  * and the structures' methods, which `range` calls, run the same kernels.
  *
  * C is a [[BitReader]] over a little-endian byte image. A layout that
  * [[NeaTSCompressed.fromBytes]] loads reads C where it sits in the blob,
  * so it keeps a reference to the blob's array, which must not be modified
  * afterwards. Every read of C is checked to end inside C: with a valid
  * checksum, a B or O that points past C raises [[CorruptBlobException]]
  * instead of reading K's and P's bytes as corrections.
  */
final class NeaTSCompressed(
    val n: Int,
    val shift: Long,
    val s: EliasFano,          // fragment starts, length m
    val b: FixedWidthArray,    // correction widths, length m
    val o: EliasFano,          // cumulative correction offsets, length m+1
    val c: BitReader,          // packed corrections
    val k: WaveletTree,        // kinds, length m
    val p: Array[Array[Double]], // per-kind-id parameter arrays
) {
  def numFragments: Int = s.length

  private[this] val sHigh = s.highs.words
  private[this] val sHighRanks = s.highs.blockRank
  private[this] val sHighLength = s.highs.length
  private[this] val sLow = s.lows.words
  private[this] val sLowBits = s.lowBits
  private[this] val sLength = s.length
  private[this] val sFirst = s.firstValue
  private[this] val sLast = s.lastValue
  private[this] val bWords = b.words
  private[this] val bWidth = b.width
  private[this] val bLength = b.length
  private[this] val oHigh = o.highs.words
  private[this] val oHighRanks = o.highs.blockRank
  private[this] val oHighLength = o.highs.length
  private[this] val oLow = o.lows.words
  private[this] val oLowBits = o.lowBits
  private[this] val oLength = o.length
  private[this] val cBytes = c.bytes
  private[this] val cBase = c.base
  private[this] val cBits = c.lengthInBits
  private[this] val kLength = k.length
  private[this] val k0 = k.level0.words
  private[this] val k0Ranks = k.level0.blockRank
  private[this] val k0Ones = k.level0.countOnes
  private[this] val k1 = k.level1.words
  private[this] val k1Ranks = k.level1.blockRank

  /** (start << 32) | (fragment + 1) of the fragment holding idx: S.predecessor. */
  private def fragmentOf(idx: Int): Long =
    EliasFano.predecessor(sHigh, sHighRanks, sHighLength, sLow, sLowBits, sLength, sFirst, sLast, idx)

  /** (kind id << 32) | rank_kind(frag): one descent of K. */
  private def kindOf(frag: Int): Long =
    WaveletTree.inverseSelect(kLength, k0, k0Ranks, k0Ones, k1, k1Ranks, frag)

  private def widthOf(frag: Int): Int = FixedWidthArray.get(bWords, bWidth, bLength, frag).toInt

  private def offsetOf(frag: Int): Long = EliasFano.get(oHigh, oHighRanks, oHighLength, oLow, oLowBits, oLength, frag)

  /** Whether `count` corrections of `width` bits from bit `pos` lie in C. */
  private def insideC(pos: Long, count: Int, width: Int): Boolean =
    pos >= 0 && pos <= cBits - count.toLong * width

  private def outsideC(pos: Long, count: Int, width: Int): Nothing =
    throw new CorruptBlobException(s"$count corrections of $width bits at bit $pos run past C's $cBits bits")

  /** Algorithm 3: value at 0-based index idx. Allocation-free. */
  def apply(idx: Int): Long = {
    if (idx < 0 || idx >= n) Check.fail(s"index $idx out of [0, $n)")
    val pred = fragmentOf(idx)
    val frag = pred.toInt - 1
    val kindRank = kindOf(frag)
    val kindId = (kindRank >>> 32).toInt
    val kind = FunctionKind.byId(kindId)
    val pf = p(kindId)
    val base = kindRank.toInt * kind.nParams
    val p3 = if (kind.nParams == 3) pf(base + 2) else 0.0
    val width = widthOf(frag)
    val corr =
      if (width == 0) 0L
      else {
        val pos = offsetOf(frag) + (idx - (pred >>> 32)) * width.toLong
        if (!insideC(pos, 1, width)) outsideC(pos, 1, width)
        BitReader.getSigned(cBytes, cBase, pos, width)
      }
    kind.approx(idx, pf(base), pf(base + 1), p3) + corr - shift
  }

  /** Decode points [from, until) of one fragment into out(outPos...): one
    * loop of [[FunctionKind.approx]] for every kind, then, only when the
    * fragment has corrections, one pass that adds them through C's running
    * word ([[BitReader.addSigned]]). On paper data (fresh JDK 17 JVMs) this
    * ran at 6.0 ns per value, against 7.3–7.6 with one copy of the first loop
    * per kind and mostly 8.3–9.2 with per-kind loops that read each
    * correction inline, so it is not specialised per kind. The caller has
    * checked that the corrections lie in C.
    */
  private def decodeRun(kind: FunctionKind, m0: Double, b0: Double, p3: Double,
                        from: Int, until: Int, width: Int, off0: Long,
                        out: Array[Long], outPos0: Int): Unit = {
    val sh = shift
    var i = from
    var pos = outPos0
    while (i < until) {
      out(pos) = kind.approx(i, m0, b0, p3) - sh
      i += 1; pos += 1
    }
    if (width > 0) BitReader.addSigned(cBytes, cBase, off0, width, out, outPos0, outPos0 + (until - from))
  }

  /** Algorithm 2: decompress the whole series. */
  def decompressAll(): Array[Long] = range(0, n)

  /** Range scan [from, from+len): one rank, then sequential decoding.
    * Allocates only the output array.
    */
  def range(from: Int, len: Int): Array[Long] = {
    if (from < 0 || len < 0 || len > n - from) Check.fail(s"range [$from, ${from.toLong + len}) out of [0, $n)")
    val out = new Array[Long](len)
    if (len == 0) return out
    var frag = s.rank(from) - 1
    var i = from
    var written = 0
    while (written < len) {
      val end0 = if (frag + 1 < numFragments) s(frag + 1).toInt else n
      val end = math.min(end0, from + len)
      val start = s(frag).toInt
      val kindId = k(frag)
      val kind = FunctionKind.byId(kindId)
      val pf = p(kindId)
      val base = k.rank(kindId, frag) * kind.nParams
      val p3 = if (kind.nParams == 3) pf(base + 2) else 0.0
      val width = b(frag).toInt
      val off = o(frag) + (i - start).toLong * width
      if (width > 0 && !insideC(off, end - i, width)) outsideC(off, end - i, width)
      decodeRun(kind, pf(base), pf(base + 1), p3, i, end, width, off, out, written)
      written += end - i
      i = end
      frag += 1
    }
    out
  }

  /** Size of the in-memory succinct structures, in bits. */
  def sizeInBits: Long =
    2L * 64 + s.sizeInBits + b.sizeInBits + o.sizeInBits + c.lengthInBits +
      k.sizeInBits + p.map(_.length.toLong * 64 + 32).sum

  /** Serialize to bytes (the on-disk/"row-group" form used by the Spark
    * layer): the in-memory words, see [[BlobFormat]].
    */
  def toBytes: Array[Byte] = BlobFormat.write(this)
}

object NeaTSCompressed {

  /** Assemble the layout from the partitioner's pieces and the raw values.
    * The pieces must tile [0, n): the first starts at 0, each starts where
    * the one before ends, and the last ends at n.
    */
  def build(ys: Array[Long], shift: Long, pieces: Vector[Piece]): NeaTSCompressed = {
    val m = pieces.length
    var covered = 0
    pieces.foreach { piece =>
      require(piece.start == covered && piece.end > piece.start,
        s"piece [${piece.start}, ${piece.end}) does not follow the points [0, $covered) before it")
      covered = piece.end
    }
    require(covered == ys.length, s"the pieces cover [0, $covered) of ${ys.length} points")
    val starts = pieces.map(_.start.toLong).toArray
    val widths = pieces.map(_.corrBits.toLong).toArray
    val kinds = pieces.map(_.kind.id).toArray
    val offsets = new Array[Long](m + 1)
    var acc = 0L
    var i = 0
    while (i < m) {
      offsets(i) = acc
      acc += pieces(i).length.toLong * pieces(i).corrBits
      i += 1
    }
    offsets(m) = acc

    val cw = new BitWriter(math.max(1, ((acc + 63) / 64).toInt))
    pieces.foreach { piece =>
      var idx = piece.start
      while (idx < piece.end) {
        val corr = (ys(idx) + shift) - piece.approx(idx)
        require(math.abs(corr) <= piece.eps,
          s"correction $corr exceeds eps ${piece.eps} at $idx (kind ${piece.kind})")
        cw.append(corr, piece.corrBits)
        idx += 1
      }
    }

    val params = Array.fill(FunctionKind.sigma)(scala.collection.mutable.ArrayBuffer[Double]())
    pieces.foreach { piece =>
      params(piece.kind.id) += piece.m
      params(piece.kind.id) += piece.b
      if (piece.kind.nParams == 3) params(piece.kind.id) += piece.p3
    }

    new NeaTSCompressed(
      ys.length, shift,
      EliasFano(starts),
      FixedWidthArray(widths, 6),
      EliasFano(offsets),
      cw.reader,
      WaveletTree(kinds, FunctionKind.sigma),
      params.map(_.toArray),
    )
  }

  /** Load a blob of [[toBytes]]; throws [[CorruptBlobException]] on anything
    * malformed, truncated or altered. The layout reads C in place and keeps a
    * reference to `bytes`: the caller must not modify the array afterwards.
    */
  def fromBytes(bytes: Array[Byte]): NeaTSCompressed = BlobFormat.read(bytes)
}
