package repro.baselines

/** A compressed sequence of 64-bit payloads (doubles-as-bits or integers)
  * supporting full decompression and random access. This is the uniform
  * interface the Table III benches drive for every compressor.
  */
trait CompressedSeq {
  def n: Int
  def sizeInBits: Long
  def decompressAll(): Array[Long]
  /** Random access to the i-th payload. */
  def get(i: Int): Long
  /** Payloads [from, from + len); one `get` each unless the codec scans faster. */
  def range(from: Int, len: Int): Array[Long] = Array.tabulate(len)(j => get(from + j))
}

/** A whole-block codec: compresses/decompresses an `Array[Long]` chunk.
  * Stream compressors (XOR family, general-purpose) implement this and get
  * random access via [[BlockStore]], the paper's block-of-1000 scheme
  * (§IV-A2): "we apply compressors that do not natively support random
  * access to blocks of 1000 consecutive values [... with] an array that maps
  * each block index to a pointer".
  */
trait BlockCodec {
  def name: String
  def compressBlock(values: Array[Long]): Array[Byte]
  def decompressBlock(bytes: Array[Byte], count: Int): Array[Long]
}

/** Block-wise store with a per-block pointer array for random access. */
final class BlockStore(val codec: BlockCodec, values: Array[Long], blockSize: Int = 1000)
    extends CompressedSeq {
  val n: Int = values.length
  private val blocks: Array[Array[Byte]] =
    values.grouped(blockSize).map(codec.compressBlock).toArray

  def sizeInBits: Long =
    blocks.map(_.length.toLong * 8).sum + blocks.length.toLong * 64 // + pointer array

  def decompressAll(): Array[Long] = {
    val out = new Array[Long](n)
    var i = 0
    var b = 0
    while (b < blocks.length) {
      val count = math.min(blockSize, n - i)
      val dec = codec.decompressBlock(blocks(b), count)
      System.arraycopy(dec, 0, out, i, count)
      i += count
      b += 1
    }
    out
  }

  def get(i: Int): Long = {
    val b = i / blockSize
    val count = math.min(blockSize, n - b * blockSize)
    codec.decompressBlock(blocks(b), count)(i % blockSize)
  }

  /** Sequential range scan: decompress only the touched blocks. */
  override def range(from: Int, len: Int): Array[Long] = {
    val out = new Array[Long](len)
    var written = 0
    var i = from
    while (written < len) {
      val b = i / blockSize
      val count = math.min(blockSize, n - b * blockSize)
      val dec = codec.decompressBlock(blocks(b), count)
      val inBlock = i - b * blockSize
      val take = math.min(len - written, count - inBlock)
      System.arraycopy(dec, inBlock, out, written, take)
      written += take
      i += take
    }
    out
  }
}

object Codec {
  /** Little-endian byte view of the longs (for byte-oriented compressors). */
  def longsToBytes(values: Array[Long]): Array[Byte] = {
    val bb = java.nio.ByteBuffer.allocate(values.length * 8).order(java.nio.ByteOrder.LITTLE_ENDIAN)
    bb.asLongBuffer().put(values)
    bb.array()
  }

  def bytesToLongs(bytes: Array[Byte], count: Int): Array[Long] = {
    val out = new Array[Long](count)
    java.nio.ByteBuffer.wrap(bytes).order(java.nio.ByteOrder.LITTLE_ENDIAN)
      .asLongBuffer().get(out, 0, count)
    out
  }

  def doublesToBits(values: Array[Double]): Array[Long] =
    values.map(java.lang.Double.doubleToRawLongBits)
}
