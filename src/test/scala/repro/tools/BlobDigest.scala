package repro.tools

import java.security.MessageDigest
import repro.core.neats.{NeaTS, NeaTSCompressed}
import repro.data.TimeSeries

/** Prints one SHA-256 of `toBytes` per (variant, analogue): NeaTS, LeaTS,
  * SNeaTS and NeaTS-L at eps = 15, over the 16 analogues at their benchmark
  * sizes and copies lifted by 2^30. Two runs print the same lines exactly
  * when every blob is byte-identical, so diffing the output of two commits
  * checks a change that must not move the format or the partition.
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

  private def sha256(bytes: Array[Byte]): String =
    MessageDigest.getInstance("SHA-256").digest(bytes).map(b => f"${b & 0xff}%02x").mkString

  def main(args: Array[String]): Unit = {
    val inputs = TimeSeries.benchmarks().flatMap { ds =>
      Seq(ds.name -> ds.longs, s"${ds.name}+2^30" -> ds.longs.map(_ + (1L << 30)))
    }
    for ((variant, compress) <- variants; (name, ys) <- inputs) {
      val blob = compress(ys).toBytes
      println(f"$variant%-8s $name%-10s ${blob.length}%9d ${sha256(blob)}")
    }
  }
}
