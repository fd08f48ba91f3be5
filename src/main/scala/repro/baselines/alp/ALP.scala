package repro.baselines.alp

import repro.baselines.BlockCodec
import repro.core.bits.{BitReader, BitWriter, FixedWidthArray}

/** ALP [Afroozeh, Kuffo, Boncz, SIGMOD'24], reimplemented on its two modes:
  *
  *  - Pseudodecimal: per vector, find the exponent e such that
  *    d = round(v * 10^e) reconstructs v exactly (bitwise) for most values;
  *    frame-of-reference bit-pack the d's; patch failures as exceptions.
  *  - ALPrd fallback for high-entropy doubles: split each 64-bit pattern into
  *    a left (high) part — dictionary-coded with up to 8 entries — and a raw
  *    right part, choosing the split width that minimises the size.
  *
  * Operates on raw double bit patterns (Array[Long] payloads). Vector size
  * is the block size chosen by the BlockStore (the paper uses 1000-value
  * blocks for the random-access comparison).
  */
object ALPCodec extends BlockCodec {
  val name = "ALP"

  private val pow10: Array[Double] = Array.tabulate(19)(i => math.pow(10, i))
  private val MaxExp = 14
  private val MaxDigits = 1L << 51

  def compressBlock(values: Array[Long]): Array[Byte] = {
    val doubles = values.map(java.lang.Double.longBitsToDouble)
    // choose the exponent with the fewest exceptions (ties -> smaller e)
    var bestE = -1
    var bestExc = Int.MaxValue
    var e = 0
    while (e <= MaxExp) {
      var exc = 0
      var i = 0
      while (i < doubles.length) {
        if (!encodable(doubles(i), e)) exc += 1
        i += 1
      }
      if (exc < bestExc) { bestExc = exc; bestE = e }
      e += 1
    }
    if (bestExc.toDouble / doubles.length > 0.3) compressRd(values)
    else compressDecimal(doubles, bestE)
  }

  private def encodable(v: Double, e: Int): Boolean = {
    if (java.lang.Double.isNaN(v) || java.lang.Double.isInfinite(v)) return false
    val scaled = v * pow10(e)
    if (math.abs(scaled) >= MaxDigits) return false
    val d = math.round(scaled)
    (d.toDouble / pow10(e)) == v && !(v == 0.0 && 1 / v < 0) // -0.0 must be an exception
  }

  private def compressDecimal(doubles: Array[Double], e: Int): Array[Byte] = {
    val n = doubles.length
    val ds = new Array[Long](n)
    val excPos = scala.collection.mutable.ArrayBuffer[Int]()
    var i = 0
    while (i < n) {
      if (encodable(doubles(i), e)) ds(i) = math.round(doubles(i) * pow10(e))
      else { excPos += i; ds(i) = 0L }
      i += 1
    }
    val minD = ds.min
    val maxD = ds.max
    val width = if (maxD == minD) 0 else FixedWidthArray.bitsFor(maxD - minD)

    val bos = new java.io.ByteArrayOutputStream()
    val out = new java.io.DataOutputStream(bos)
    out.writeByte(0) // mode: pseudodecimal
    out.writeByte(e)
    out.writeLong(minD)
    out.writeByte(width)
    val w = new BitWriter(n)
    i = 0
    while (i < n) { w.append(ds(i) - minD, width); i += 1 }
    writeBits(out, w)
    out.writeShort(excPos.length)
    excPos.foreach { p =>
      out.writeShort(p)
      out.writeLong(java.lang.Double.doubleToRawLongBits(doubles(p)))
    }
    out.flush()
    bos.toByteArray
  }

  /** ALPrd-like fallback: dictionary on the left `l` bits, raw right bits. */
  private def compressRd(values: Array[Long]): Array[Byte] = {
    val n = values.length
    var bestL = 8
    var bestSize = Long.MaxValue
    var bestDict: Array[Long] = null
    var l = 8
    while (l <= 24) {
      val counts = new java.util.HashMap[Long, Int]()
      values.foreach { v =>
        val left = v >>> (64 - l)
        counts.merge(left, 1, _ + _)
      }
      val top = counts.entrySet().toArray(Array.empty[java.util.Map.Entry[Long, Int]])
        .sortBy(-_.getValue).take(8)
      val dict = top.map(_.getKey)
      val covered = top.map(_.getValue.toLong).sum
      val exceptions = n - covered
      val size = n.toLong * (3 + (64 - l)) + exceptions * (l + 16) + 8L * l + 64
      if (size < bestSize) { bestSize = size; bestL = l; bestDict = dict }
      l += 2
    }
    val dictMap = bestDict.zipWithIndex.toMap
    val r = 64 - bestL
    val bos = new java.io.ByteArrayOutputStream()
    val out = new java.io.DataOutputStream(bos)
    out.writeByte(1) // mode: rd
    out.writeByte(bestL)
    out.writeByte(bestDict.length)
    bestDict.foreach(out.writeLong)
    val codes = new BitWriter(n)
    val rights = new BitWriter(n)
    val excPos = scala.collection.mutable.ArrayBuffer[(Int, Long)]()
    var i = 0
    while (i < n) {
      val v = values(i)
      val left = v >>> r
      val code = dictMap.getOrElse(left, 0)
      if (!dictMap.contains(left)) excPos += ((i, left))
      codes.append(code.toLong, 3)
      rights.append(v & ((1L << r) - 1), r)
      i += 1
    }
    writeBits(out, codes)
    writeBits(out, rights)
    out.writeShort(excPos.length)
    excPos.foreach { case (p, left) => out.writeShort(p); out.writeLong(left) }
    out.flush()
    bos.toByteArray
  }

  /** The stream's length in bits, its word count and its little-endian image. */
  private def writeBits(out: java.io.DataOutputStream, w: BitWriter): Unit = {
    val image = w.image
    out.writeLong(w.lengthInBits)
    out.writeInt(image.length / 8)
    out.write(image)
  }

  /** A reader over the image of [[writeBits]], where it sits in the block. */
  private def readBits(in: java.nio.ByteBuffer): BitReader = {
    val bits = in.getLong()
    val nWords = in.getInt()
    val r = new BitReader(in.array, in.position(), bits)
    in.position(in.position() + 8 * nWords)
    r
  }

  def decompressBlock(bytes: Array[Byte], count: Int): Array[Long] = {
    val in = java.nio.ByteBuffer.wrap(bytes) // big-endian, as DataOutputStream writes
    val mode = in.get()
    if (mode == 0) {
      val e = in.get().toInt
      val minD = in.getLong()
      val width = in.get().toInt
      val r = readBits(in)
      val out = new Array[Long](count)
      var i = 0
      while (i < count) {
        val d = r.get(i.toLong * width, width) + minD
        out(i) = java.lang.Double.doubleToRawLongBits(d.toDouble / pow10(e))
        i += 1
      }
      val nExc = in.getShort().toInt
      var x = 0
      while (x < nExc) {
        val p = in.getShort().toInt
        out(p) = in.getLong()
        x += 1
      }
      out
    } else {
      val l = in.get().toInt
      val dictLen = in.get().toInt
      val dict = Array.fill(dictLen)(in.getLong())
      val r = 64 - l
      val codes = readBits(in)
      val rights = readBits(in)
      val out = new Array[Long](count)
      var i = 0
      while (i < count) {
        val code = codes.get(i.toLong * 3, 3).toInt
        val left = if (code < dictLen) dict(code) else 0L
        out(i) = (left << r) | rights.get(i.toLong * r, r)
        i += 1
      }
      val nExc = in.getShort().toInt
      var x = 0
      while (x < nExc) {
        val p = in.getShort().toInt
        val left = in.getLong()
        out(p) = (left << r) | (out(p) & ((1L << r) - 1))
        x += 1
      }
      out
    }
  }
}
