package repro.tools

import java.nio.ByteBuffer
import java.security.MessageDigest
import repro.core.neats.{NeaTS, NeaTSCompressed}
import repro.data.TimeSeries

/** Prints, per (variant, analogue), the blob's length, the layout's
  * `sizeInBits`, a SHA-256 of the blob's bytes (`toBytes`) and a SHA-256 of
  * the in-memory layout it holds: n, the shift, the values of S, B, O and K,
  * the words of C and the raw bits of every P_f. The variants are NeaTS,
  * LeaTS, SNeaTS and NeaTS-L at eps = 15, over the 16 analogues at their
  * benchmark sizes and copies lifted by 2^30.
  * Diffing the output of two commits checks a change that must not move the
  * partition: the layout digests must match, and the blob digests too
  * unless the change moves the blob format (the word-level format of
  * version 1 changed every blob digest once and no layout digest). A
  * `sizeInBits` that moves with no digest moving is a change to the
  * in-memory accounting, which perfbench reads as `mem_pct`.
  *
  * Run: `sbt "Test/runMain repro.tools.BlobDigest"`
  */
object BlobDigest {

  private val variants: Seq[(String, Array[Long] => NeaTSCompressed)] = Seq(
    "NeaTS" -> (ys => NeaTS.compress(ys)),
    "LeaTS" -> NeaTS.compressLinearOnly,
    "SNeaTS" -> NeaTS.compressSelected,
    "NeaTS-L" -> (ys => NeaTS.compressLossy(ys, 15)),
  )

  private def hex(digest: Array[Byte]): String = digest.map(b => f"${b & 0xff}%02x").mkString

  private def sha256(bytes: Array[Byte]): String = hex(MessageDigest.getInstance("SHA-256").digest(bytes))

  private def layoutSha256(c: NeaTSCompressed): String = {
    val md = MessageDigest.getInstance("SHA-256")
    val word = ByteBuffer.allocate(8)
    def put(v: Long): Unit = { word.clear(); md.update(word.putLong(v).array) }
    def seq(vs: Array[Long]): Unit = { put(vs.length); vs.foreach(put) }
    put(c.n)
    put(c.shift)
    Seq(c.s.toArray, c.b.toArray, c.o.toArray, c.k.toArray.map(_.toLong), c.c.words).foreach(seq)
    c.p.foreach(pf => seq(pf.map(java.lang.Double.doubleToRawLongBits)))
    hex(md.digest())
  }

  def main(args: Array[String]): Unit = {
    val inputs = TimeSeries.benchmarks().flatMap { ds =>
      Seq(ds.name -> ds.longs, s"${ds.name}+2^30" -> ds.longs.map(_ + (1L << 30)))
    }
    for ((variant, compress) <- variants; (name, ys) <- inputs) {
      val c = compress(ys)
      val blob = c.toBytes
      println(f"$variant%-8s $name%-10s ${blob.length}%9d ${c.sizeInBits}%10d ${sha256(blob)} ${layoutSha256(c)}")
    }
  }
}
