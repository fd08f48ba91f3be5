package repro.core.neats

import java.nio.{ByteBuffer, ByteOrder}
import java.util.Random
import java.util.zip.CRC32C
import org.scalacheck.{Gen, Prop}
import repro.{FixedSeed, SparkSpec}
import repro.core.bits.{EliasFano, FixedWidthArray, WaveletTree}
import repro.data.TimeSeries
import repro.sparkts.NeaTSFiles

/** The blob format: every truncated, altered or inconsistent blob fails
  * with [[CorruptBlobException]], and loading a blob rebuilds the layout it
  * was written from, word for word.
  */
class BlobFormatSpec extends SparkSpec {
  import PinSpec.{layout, variants}

  private val data = TimeSeries.dataset("US", 600).longs
  private val blob = NeaTS.compress(data).toBytes

  /** What loading `bytes` does: "typed" for the typed error, "wrong" for a
    * decode that differs from `data`, "right" for one that equals it, else
    * the class of what it threw.
    */
  private def outcome(bytes: Array[Byte]): String =
    try {
      if (NeaTSCompressed.fromBytes(bytes).decompressAll().sameElements(data)) "right" else "wrong"
    } catch {
      case _: CorruptBlobException => "typed"
      case e: Throwable => e.getClass.getName
    }

  private def assertAllTyped(cases: Seq[(String, Array[Byte])]): Unit = {
    val outcomes = cases.map { case (name, bytes) => name -> outcome(bytes) }
    val untyped = outcomes.filter(_._2 != "typed")
    val counts = outcomes.groupBy(_._2).map { case (k, v) => s"$k: ${v.length}" }.mkString(", ")
    if (untyped.nonEmpty) fail(s"of ${cases.length} cases ($counts), e.g. ${untyped.take(5).mkString("; ")}")
  }

  test("the blob loads and decodes") {
    assert(outcome(blob) === "right")
  }

  test("every truncation fails with the typed error") {
    assertAllTyped((0 until blob.length).map(len => s"first $len bytes" -> blob.take(len)))
  }

  test("every single-byte flip fails with the typed error") {
    assertAllTyped(blob.indices.map { i =>
      val bytes = blob.clone()
      bytes(i) = (bytes(i) ^ 0x10).toByte
      s"byte $i" -> bytes
    })
  }

  test("a blob with a valid checksum and inconsistent lengths fails with the typed error") {
    val c = NeaTS.compress(data)
    assert(c.numFragments > 1)
    val frags = c.s.toArray
    val offsets = c.o.toArray
    val kinds = c.k.toArray
    def blobOf(s: EliasFano = c.s, o: EliasFano = c.o, k: WaveletTree = c.k, p: Array[Array[Double]] = c.p) =
      new NeaTSCompressed(c.n, c.shift, s, c.b, o, c.c, k, p).toBytes
    val widerP = c.p.map(_ :+ 0.0)
    // K's sigma sits after the header, S, B, O, C and K's length
    def efBytes(e: EliasFano) = 16 + 8 * (e.lows.words.length + e.highs.words.length)
    val sigmaAt = 24 + efBytes(c.s) + 8 + 8 * c.b.words.length + efBytes(c.o) + 8 + c.c.imageLength + 4
    val sigma5 = {
      val bytes = c.toBytes
      val buf = ByteBuffer.wrap(bytes).order(ByteOrder.LITTLE_ENDIAN)
      assert(buf.getInt(sigmaAt - 4) === c.numFragments && buf.getInt(sigmaAt) === 4)
      buf.putInt(sigmaAt, 5)
      val crc = new CRC32C
      crc.update(bytes, 0, bytes.length - 4)
      buf.putInt(bytes.length - 4, crc.getValue.toInt)
      bytes
    }
    assertAllTyped(Seq(
      "m - 1 kinds" -> blobOf(k = WaveletTree(kinds.init, 4)),
      "m + 1 kinds" -> blobOf(k = WaveletTree(kinds :+ kinds.last, 4)),
      "five parameter arrays" -> blobOf(p = c.p :+ Array.empty[Double]),
      "K's sigma patched to 5" -> sigma5,
      "m offsets for m fragments" -> blobOf(o = EliasFano(offsets.dropRight(1))),
      "m + 2 offsets for m fragments" -> blobOf(o = EliasFano(offsets :+ offsets.last)),
      "m + 1 fragments" -> blobOf(s = EliasFano(frags :+ (c.n - 1L))),
      "offsets end past the corrections" -> blobOf(o = EliasFano(offsets.init :+ (offsets.last + 1))),
      "one parameter too many per kind" -> blobOf(p = widerP),
      "fragments start after 0" -> blobOf(s = EliasFano(frags.map(_ + 1))),
    ))
  }

  test("a blob with a valid checksum whose last width points past C fails typed, from decode and lookups") {
    val c = NeaTS.compress(TimeSeries.dataset("ECG", 4000).longs)
    val last = c.numFragments - 1
    val widths = c.b.toArray
    widths(last) += 5
    val blob = new NeaTSCompressed(c.n, c.shift, c.s, FixedWidthArray(widths, 6), c.o, c.c, c.k, c.p).toBytes
    val wider = NeaTSCompressed.fromBytes(blob)
    // the lookups whose one extract ends past C's last bit
    val (start, width) = (c.s(last), widths(last))
    val past = (start.toInt until c.n).filter(i => c.o(last) + (i - start + 1) * width > c.c.lengthInBits)
    assert(past.length >= 15)
    def outcome(call: => Any): String =
      try { call; "value" } catch {
        case _: CorruptBlobException => "typed"
        case e: Throwable => e.getClass.getName
      }
    assert(outcome(wider.decompressAll()) === "typed")
    val lookups = (0 until c.n).map(i => outcome(wider(i)))
    assert(lookups.toSet === Set("value", "typed"))
    assert(lookups.indices.filter(lookups(_) == "typed") === past)
  }

  test("a corrupt row-group file fails to load with the typed error") {
    val dir = java.nio.file.Files.createTempDirectory("neats-corrupt").toFile
    try {
      NeaTSFiles.write(dir.getPath, data, groupSize = 256)
      val (_, groups) = NeaTSFiles.readMeta(dir.getPath)
      val file = new java.io.File(dir, groups(1).file).toPath
      val bytes = java.nio.file.Files.readAllBytes(file)
      bytes(bytes.length / 2) = (bytes(bytes.length / 2) ^ 0x10).toByte
      java.nio.file.Files.write(file, bytes)
      assert(NeaTSFiles.readGroup(dir.getPath, groups(0)).decompressAll().sameElements(data.take(256)))
      intercept[CorruptBlobException](NeaTSFiles.readGroup(dir.getPath, groups(1)))
    } finally {
      dir.listFiles().foreach(_.delete())
      dir.delete()
    }
  }

  /** Lengths 0, 1, 2 or up to 1,500; a random walk or an analogue window;
    * as is or lifted by 2^30.
    */
  private val series: Gen[Array[Long]] = for {
    n <- Gen.frequency(1 -> Gen.choose(0, 2), 4 -> Gen.choose(3, 1500))
    analogue <- Gen.oneOf(false, true)
    lift <- Gen.oneOf(0L, 1L << 30)
    seed <- Gen.long
  } yield {
    val rng = new Random(seed)
    val ys =
      if (analogue) {
        val name = TimeSeries.names(rng.nextInt(TimeSeries.names.length))
        val from = rng.nextInt(2000)
        TimeSeries.dataset(name, from + n).longs.drop(from)
      } else {
        var v = rng.nextInt(100000).toLong
        Array.fill(n) { v += rng.nextInt(41) - 20; v }
      }
    ys.map(_ + lift)
  }

  /** The variants whose loaded blob differs from what was written. */
  private def reloadsDiffer(ys: Array[Long]): Seq[String] =
    variants.filterNot { v =>
      val c = v.compress(ys)
      val bytes = c.toBytes
      val loaded = NeaTSCompressed.fromBytes(bytes)
      layout(loaded) == layout(c) && loaded.toBytes.sameElements(bytes) &&
        loaded.decompressAll().sameElements(c.decompressAll())
    }.map(_.name)

  test("loading a blob of 0, 1 or 2 values rebuilds its layout") {
    for (ys <- Seq(Array.empty[Long], Array(7L), Array(7L, -3L)); lift <- Seq(0L, 1L << 30))
      assert(reloadsDiffer(ys.map(_ + lift)).isEmpty, s"${ys.length} values lifted by $lift")
  }

  test("loading a blob rebuilds the layout it was written from") {
    val prop = Prop.forAllNoShrink(series) { ys =>
      val differ = reloadsDiffer(ys)
      Prop(differ.isEmpty) :| s"n=${ys.length}: ${differ.mkString(", ")} differ"
    }
    FixedSeed.check(prop, 20261019L, cases = 100)
  }
}
