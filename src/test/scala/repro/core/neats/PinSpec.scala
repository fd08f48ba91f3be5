package repro.core.neats

import java.nio.ByteBuffer
import java.security.MessageDigest
import repro.SparkSpec
import repro.core.approx.LinearKind
import repro.core.bits.BitReader
import repro.data.TimeSeries

/** Pins, per variant (NeaTS, LeaTS, SNeaTS and NeaTS-L at eps = 15), what
  * it makes of the 16 analogues at their benchmark sizes and of copies lifted
  * by 2^30:
  *  - Algorithm 1's partition, before `repair`: a SHA-256 over each piece's
  *    start, end, kind id, eps and the raw bits of m, b and p3;
  *  - the blob: a SHA-256 over each blob's length, the layout's `sizeInBits`
  *    and the blob's bytes (`toBytes`).
  *
  * A change that must move no byte (a faster fill or relaxation, a new read
  * path or in-memory layout) keeps every hash. A change that moves the
  * partition, the blob format or the in-memory accounting (`mem_pct`) on
  * purpose updates the hashes here and says why. `PinSpec.main` prints the
  * hashes, then one line per variant and input: the blob's length,
  * `sizeInBits`, the blob's SHA-256 and the SHA-256 of the in-memory
  * layout, so two commits can be diffed line by line.
  *
  * Run: `sbt "Test/runMain repro.core.neats.PinSpec"`
  */
class PinSpec extends SparkSpec {
  import PinSpec._

  /** Per variant: the partition hash, then the blob hash. */
  private val expected = Map(
    "NeaTS" -> ("0c4f0a8569ca5d7898fdff9207502d963690d5567a07ca0ec45f93cbdb846542",
      "6905a77638c2601ff97a18799fc44414f9f882d439615d9bcdd569904e01b37d"),
    "LeaTS" -> ("487148b861d9cc9ba7feeb8103f0100d9569eb71b3d039827de542b9fa711ae2",
      "66018152cd0f7a8d6ff848596370f3c407221e53e439091829e3f3c551882993"),
    "SNeaTS" -> ("849ad1f39c8f4eae9112e3187f5c58114a8f09c982260f2990a7d9ee5b4d46a2",
      "c3f19e8f00d27a7873d2c6194fff99f9a34d825ea95e0cfa720d67341f80c34a"),
    "NeaTS-L" -> ("391d08dbd3e96eaa92c5ca906080c524d87d5cc24725f90a5c7a996e01ffcc74",
      "24c6ad6a7f83db0ab663a0ab58e273fed5c99eac1423a0f7a8b73177e5f67efe"),
  )

  for (v <- variants) {
    test(s"${v.name}'s partition of the 16 analogues is pinned") {
      assert(partitionSha256(v) === expected(v.name)._1)
    }
    test(s"${v.name}'s blobs of the 16 analogues are pinned") {
      assert(blobSha256(blobs(v)) === expected(v.name)._2)
    }
  }
}

object PinSpec {

  /** A variant: its name, Algorithm 1 as it calls it (before `repair`) and
    * its `NeaTS` entry point.
    */
  final case class Variant(name: String, partition: Array[Long] => Vector[Piece],
                           compress: Array[Long] => NeaTSCompressed)

  val variants: Seq[Variant] = Seq(
    Variant("NeaTS", { ys =>
      val eps = NeaTS.epsGrid(ys)
      Partitioner.lossless(ys, NeaTS.shiftFor(ys, eps.max), NeaTS.defaultKinds, eps)
    }, ys => NeaTS.compress(ys)),
    Variant("LeaTS", { ys =>
      val eps = NeaTS.epsGrid(ys)
      Partitioner.lossless(ys, NeaTS.shiftFor(ys, eps.max), Seq(LinearKind), eps)
    }, NeaTS.compressLinearOnly),
    Variant("SNeaTS", { ys =>
      val eps = NeaTS.epsGrid(ys)
      val shift = NeaTS.shiftFor(ys, eps.max)
      Partitioner.run(ys, shift, NeaTS.selectedPairs(ys, shift, eps), lossy = false)
    }, NeaTS.compressSelected),
    Variant("NeaTS-L", ys => Partitioner.run(ys, NeaTS.shiftFor(ys, 15), NeaTS.defaultKinds.map(_ -> 15L), lossy = true),
            ys => NeaTS.compressLossy(ys, 15)),
  )

  /** The 16 analogues at their benchmark sizes, each as is and lifted by 2^30. */
  private lazy val inputs: Seq[(String, Array[Long])] = TimeSeries.benchmarks().flatMap { ds =>
    Seq(ds.name -> ds.longs, s"${ds.name}+2^30" -> ds.longs.map(_ + (1L << 30)))
  }

  /** A SHA-256 in hex; `long` adds a value as 8 big-endian bytes. */
  private final class Sha256 {
    private val md = MessageDigest.getInstance("SHA-256")
    private val word = ByteBuffer.allocate(8)
    def long(v: Long): this.type = { word.clear(); md.update(word.putLong(v).array); this }
    def bytes(bs: Array[Byte]): this.type = { md.update(bs); this }
    def hex: String = md.digest().map(b => f"${b & 0xff}%02x").mkString
  }

  /** The 64-bit words of a bit reader's image, in order. */
  def words(r: BitReader): Seq[Long] = (0 until r.imageLength / 8).map(i => r.get(64L * i, 64))

  /** The in-memory layout: n, shift, `sizeInBits`, C's length, then the
    * values of S, B, O and K, the words of C and the raw bits of every P_f.
    */
  def layout(c: NeaTSCompressed): Seq[Seq[Long]] =
    Seq(Seq(c.n.toLong, c.shift, c.sizeInBits, c.c.lengthInBits),
        c.s.toArray.toSeq, c.b.toArray.toSeq, c.o.toArray.toSeq, c.k.toArray.toSeq.map(_.toLong),
        words(c.c)) ++ c.p.map(_.toSeq.map(java.lang.Double.doubleToRawLongBits))

  private def partitionSha256(v: Variant): String = {
    val h = new Sha256
    for ((_, ys) <- inputs; p <- v.partition(ys)) {
      Seq(p.start.toLong, p.end.toLong, p.kind.id.toLong, p.eps).foreach(h.long)
      Seq(p.m, p.b, p.p3).foreach(x => h.long(java.lang.Double.doubleToRawLongBits(x)))
    }
    h.hex
  }

  /** Per input: its name, the variant's layout and the layout's blob. */
  private def blobs(v: Variant): Seq[(String, NeaTSCompressed, Array[Byte])] =
    inputs.map { case (name, ys) => val c = v.compress(ys); (name, c, c.toBytes) }

  private def blobSha256(rows: Seq[(String, NeaTSCompressed, Array[Byte])]): String = {
    val h = new Sha256
    for ((_, c, blob) <- rows) h.long(blob.length).long(c.sizeInBits).bytes(blob)
    h.hex
  }

  def main(args: Array[String]): Unit = {
    val rows = variants.map(v => v -> blobs(v))
    for ((v, vRows) <- rows)
      println(s"""    "${v.name}" -> ("${partitionSha256(v)}",\n      "${blobSha256(vRows)}"),""")
    for ((v, vRows) <- rows; (name, c, blob) <- vRows) {
      val layoutSha = new Sha256
      layout(c).foreach { vs => layoutSha.long(vs.length); vs.foreach(layoutSha.long) }
      val blobSha = new Sha256().bytes(blob)
      println(f"${v.name}%-8s $name%-10s ${blob.length}%9d ${c.sizeInBits}%10d ${blobSha.hex} ${layoutSha.hex}")
    }
  }
}
