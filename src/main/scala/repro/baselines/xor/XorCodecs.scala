package repro.baselines.xor

import repro.baselines.BlockCodec
import repro.core.bits.{BitReader, BitWriter}

/** Bit-stream <-> byte-array glue shared by the XOR-family codecs: the
  * stream's little-endian image, cut to its last byte.
  */
private[baselines] object BitBytes {
  def toBytes(w: BitWriter): Array[Byte] =
    java.util.Arrays.copyOf(w.image, ((w.lengthInBits + 7) / 8).toInt)

  /** A reader over the bytes, padded back to whole words. */
  def reader(bytes: Array[Byte]): BitReader =
    new BitReader(java.util.Arrays.copyOf(bytes, (bytes.length + 7) / 8 * 8), 0, bytes.length.toLong * 8)
}

/** Gorilla's XOR-of-consecutive-values compression [Pelkonen et al., VLDB'15]:
  * '0' for identical, '10' reuse previous leading/meaningful window,
  * '11' + 5-bit leading zeros + 6-bit (length-1) + meaningful bits.
  */
object GorillaCodec extends BlockCodec {
  val name = "Gorilla"

  def compressBlock(values: Array[Long]): Array[Byte] = {
    val w = new BitWriter(values.length)
    var prev = 0L
    var prevLz = -1
    var prevTz = -1
    var i = 0
    while (i < values.length) {
      val v = values(i)
      if (i == 0) w.append(v, 64)
      else {
        val x = v ^ prev
        if (x == 0) w.appendBit(false)
        else {
          w.appendBit(true)
          val lz = math.min(java.lang.Long.numberOfLeadingZeros(x), 31)
          val tz = java.lang.Long.numberOfTrailingZeros(x)
          if (prevLz >= 0 && lz >= prevLz && tz >= prevTz) {
            w.appendBit(false)
            w.append(x >>> prevTz, 64 - prevLz - prevTz)
          } else {
            w.appendBit(true)
            val len = 64 - lz - tz
            w.append(lz.toLong, 5)
            w.append((len - 1).toLong, 6)
            w.append(x >>> tz, len)
            prevLz = lz
            prevTz = tz
          }
        }
      }
      prev = v
      i += 1
    }
    BitBytes.toBytes(w)
  }

  def decompressBlock(bytes: Array[Byte], count: Int): Array[Long] = {
    val r = BitBytes.reader(bytes)
    val out = new Array[Long](count)
    var pos = 0L
    var prev = 0L
    var prevLz = 0
    var prevTz = 0
    var i = 0
    while (i < count) {
      if (i == 0) { prev = r.get(0, 64); pos = 64 }
      else if (!r.getBit(pos)) pos += 1 // identical
      else if (!r.getBit(pos + 1)) {
        val len = 64 - prevLz - prevTz
        prev ^= r.get(pos + 2, len) << prevTz
        pos += 2 + len
      } else {
        val lz = r.get(pos + 2, 5).toInt
        val len = r.get(pos + 7, 6).toInt + 1
        val tz = 64 - lz - len
        prev ^= r.get(pos + 13, len) << tz
        pos += 13 + len
        prevLz = lz
        prevTz = tz
      }
      out(i) = prev
      i += 1
    }
    out
  }
}

/** Chimp [Liakos et al., PVLDB'22]: 2-bit flags with a rounded leading-zero
  * table; '01' exploits >6 trailing zeros by storing only the centre bits.
  */
object ChimpCodec extends BlockCodec {
  val name = "Chimp"

  private[xor] val leadingRound = Array(0, 8, 12, 16, 18, 20, 22, 24)
  private[xor] def leadingIndex(lz: Int): Int = {
    var idx = 0
    var i = 0
    while (i < leadingRound.length) { if (lz >= leadingRound(i)) idx = i; i += 1 }
    idx
  }

  def compressBlock(values: Array[Long]): Array[Byte] = {
    val w = new BitWriter(values.length)
    var prev = 0L
    var prevLead = -1
    var i = 0
    while (i < values.length) {
      val v = values(i)
      if (i == 0) w.append(v, 64)
      else {
        val x = v ^ prev
        if (x == 0) { w.append(0L, 2); prevLead = -1 }
        else {
          val lz = java.lang.Long.numberOfLeadingZeros(x)
          val tz = java.lang.Long.numberOfTrailingZeros(x)
          val leadIdx = leadingIndex(lz)
          val lead = leadingRound(leadIdx)
          if (tz > 6) {
            w.append(1L, 2) // '01'
            val center = 64 - lead - tz
            w.append(leadIdx.toLong, 3)
            w.append(center.toLong, 6)
            w.append(x >>> tz, center)
            prevLead = -1
          } else if (lead == prevLead) {
            w.append(2L, 2) // '10': reuse previous leading count
            w.append(x, 64 - lead)
          } else {
            w.append(3L, 2) // '11'
            w.append(leadIdx.toLong, 3)
            w.append(x, 64 - lead)
            prevLead = lead
          }
        }
      }
      prev = v
      i += 1
    }
    BitBytes.toBytes(w)
  }

  def decompressBlock(bytes: Array[Byte], count: Int): Array[Long] = {
    val r = BitBytes.reader(bytes)
    val out = new Array[Long](count)
    var pos = 0L
    var prev = 0L
    var prevLead = 0
    var i = 0
    while (i < count) {
      if (i == 0) { prev = r.get(0, 64); pos = 64 }
      else {
        val flag = r.get(pos, 2).toInt
        pos += 2
        flag match {
          case 0 => // identical
          case 1 =>
            val lead = leadingRound(r.get(pos, 3).toInt)
            val center = r.get(pos + 3, 6).toInt
            val tz = 64 - lead - center
            prev ^= r.get(pos + 9, center) << tz
            pos += 9 + center
          case 2 =>
            prev ^= r.get(pos, 64 - prevLead)
            pos += 64 - prevLead
          case 3 =>
            val lead = leadingRound(r.get(pos, 3).toInt)
            prev ^= r.get(pos + 3, 64 - lead)
            pos += 3 + 64 - lead
            prevLead = lead
        }
      }
      out(i) = prev
      i += 1
    }
    out
  }
}

/** Chimp128: like Chimp but XORs against the value among the previous 128
  * that yields the most trailing zeros (7-bit back-reference index).
  */
object Chimp128Codec extends BlockCodec {
  val name = "Chimp128"
  private val W = 128

  def compressBlock(values: Array[Long]): Array[Byte] = {
    val w = new BitWriter(values.length)
    var i = 0
    while (i < values.length) {
      val v = values(i)
      if (i == 0) w.append(v, 64)
      else {
        // best reference = most trailing zeros in the XOR (most recent wins ties)
        var bestOff = 1
        var bestTz = -1
        var off = 1
        val maxOff = math.min(W, i)
        while (off <= maxOff) {
          val x = v ^ values(i - off)
          val tz = if (x == 0) 64 else java.lang.Long.numberOfTrailingZeros(x)
          if (tz > bestTz) { bestTz = tz; bestOff = off }
          off += 1
        }
        val ref = values(i - bestOff)
        val x = v ^ ref
        if (x == 0) {
          w.append(0L, 2)
          w.append((bestOff - 1).toLong, 7)
        } else {
          val lz = java.lang.Long.numberOfLeadingZeros(x)
          val tz = java.lang.Long.numberOfTrailingZeros(x)
          val leadIdx = ChimpCodec.leadingIndex(lz)
          val lead = ChimpCodec.leadingRound(leadIdx)
          if (tz > 6) {
            w.append(1L, 2)
            w.append((bestOff - 1).toLong, 7)
            val center = 64 - lead - tz
            w.append(leadIdx.toLong, 3)
            w.append(center.toLong, 6)
            w.append(x >>> tz, center)
          } else {
            // fall back to the immediately preceding value, Chimp '11' style
            val xp = v ^ values(i - 1)
            val lzp = java.lang.Long.numberOfLeadingZeros(xp)
            val leadIdxP = ChimpCodec.leadingIndex(lzp)
            val leadP = ChimpCodec.leadingRound(leadIdxP)
            w.append(3L, 2)
            w.append(leadIdxP.toLong, 3)
            w.append(xp, 64 - leadP)
          }
        }
      }
      i += 1
    }
    BitBytes.toBytes(w)
  }

  def decompressBlock(bytes: Array[Byte], count: Int): Array[Long] = {
    val r = BitBytes.reader(bytes)
    val out = new Array[Long](count)
    var pos = 0L
    var i = 0
    while (i < count) {
      if (i == 0) { out(0) = r.get(0, 64); pos = 64 }
      else {
        val flag = r.get(pos, 2).toInt
        pos += 2
        flag match {
          case 0 =>
            val off = r.get(pos, 7).toInt + 1
            pos += 7
            out(i) = out(i - off)
          case 1 =>
            val off = r.get(pos, 7).toInt + 1
            pos += 7
            val lead = ChimpCodec.leadingRound(r.get(pos, 3).toInt)
            val center = r.get(pos + 3, 6).toInt
            val tz = 64 - lead - center
            out(i) = out(i - off) ^ (r.get(pos + 9, center) << tz)
            pos += 9 + center
          case 3 =>
            val lead = ChimpCodec.leadingRound(r.get(pos, 3).toInt)
            out(i) = out(i - 1) ^ r.get(pos + 3, 64 - lead)
            pos += 3 + 64 - lead
          case other =>
            throw new IllegalStateException(s"bad Chimp128 flag $other")
        }
      }
      i += 1
    }
    out
  }
}

/** TSXor [Bruno et al., SPIRE'21]: byte-oriented scheme over a window of the
  * previous 128 values — exact-match back-reference (1 byte), XOR against the
  * most-similar window value with leading/trailing zero-byte trimming, or an
  * 8-byte literal.
  */
object TSXorCodec extends BlockCodec {
  val name = "TSXor"
  private val W = 127

  def compressBlock(values: Array[Long]): Array[Byte] = {
    val out = new java.io.ByteArrayOutputStream(values.length * 4)
    var i = 0
    while (i < values.length) {
      val v = values(i)
      val maxOff = math.min(W, i)
      var exact = -1
      var bestOff = -1
      var bestBits = Integer.MAX_VALUE
      var off = 1
      while (off <= maxOff && exact < 0) {
        val ref = values(i - off)
        if (ref == v) exact = off
        else {
          val bits = java.lang.Long.bitCount(v ^ ref)
          if (bits < bestBits) { bestBits = bits; bestOff = off }
        }
        off += 1
      }
      if (exact > 0) out.write(exact - 1) // 0..126: exact match
      else if (bestOff > 0) {
        val x = v ^ values(i - bestOff)
        val lzB = java.lang.Long.numberOfLeadingZeros(x) / 8
        val tzB = java.lang.Long.numberOfTrailingZeros(x) / 8
        val len = 8 - lzB - tzB
        if (len >= 8) { out.write(255); writeLong(out, v) } // no byte savings: literal
        else {
          out.write(254)
          out.write(bestOff - 1)
          out.write((tzB << 4) | len)
          var b = 0
          val payload = x >>> (tzB * 8)
          while (b < len) { out.write(((payload >>> (b * 8)) & 0xff).toInt); b += 1 }
        }
      } else { out.write(255); writeLong(out, v) }
      i += 1
    }
    out.toByteArray
  }

  private def writeLong(out: java.io.ByteArrayOutputStream, v: Long): Unit = {
    var b = 0
    while (b < 8) { out.write(((v >>> (b * 8)) & 0xff).toInt); b += 1 }
  }

  def decompressBlock(bytes: Array[Byte], count: Int): Array[Long] = {
    val out = new Array[Long](count)
    var p = 0
    var i = 0
    while (i < count) {
      val ctrl = bytes(p) & 0xff
      p += 1
      if (ctrl < 254) out(i) = out(i - (ctrl + 1))
      else if (ctrl == 255) {
        var v = 0L
        var b = 0
        while (b < 8) { v |= (bytes(p + b) & 0xffL) << (b * 8); b += 1 }
        out(i) = v
        p += 8
      } else {
        val off = (bytes(p) & 0xff) + 1
        val hdr = bytes(p + 1) & 0xff
        val tzB = hdr >>> 4
        val len = hdr & 0xf
        p += 2
        var x = 0L
        var b = 0
        while (b < len) { x |= (bytes(p + b) & 0xffL) << (b * 8); b += 1 }
        p += len
        out(i) = out(i - off) ^ (x << (tzB * 8))
      }
      i += 1
    }
    out
  }
}
