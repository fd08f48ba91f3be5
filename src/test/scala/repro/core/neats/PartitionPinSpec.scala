package repro.core.neats

import java.nio.ByteBuffer
import java.security.MessageDigest
import repro.SparkSpec
import repro.data.TimeSeries

/** Pins Algorithm 1's output: per variant (NeaTS, LeaTS, SNeaTS and NeaTS-L
  * at eps = 15), a SHA-256 over the pieces that the partitioner returns for
  * the 16 analogues at a tenth of their benchmark sizes. Each piece adds its
  * start, end, kind id, eps and the raw bits of m, b and p3.
  *
  * A change that must keep the partition (a faster fill or relaxation, a new
  * buffer layout) keeps every hash. A change that moves the partition on
  * purpose, such as float32 anchored parameters or an exact verbatim pair,
  * updates the hashes here and says why; `PartitionPinSpec.main` prints them.
  */
class PartitionPinSpec extends SparkSpec {
  import PartitionPinSpec._

  private val expected = Map(
    "NeaTS" -> "9870fcd23d337b125277433f8fb33e7738d35654587d5c8dd82b2e5dbabc42c1",
    "LeaTS" -> "fdf649b06bf014c8bdd53454e9555a51c5df4dcd4df5f8b0eaa98cf407b62bc7",
    "SNeaTS" -> "d900fa118c0ab75a4e16c2988c84bfee5dc575e6b4e663eff60f5019880fa74a",
    "NeaTS-L" -> "e60ad8619aa0fd14972134c717c65615e2e701f1165088b625bed2aa5f3e7b6f",
  )

  for ((variant, partition) <- variants)
    test(s"$variant's partition of the 16 analogues is pinned") {
      assert(digest(partition) === expected(variant))
    }
}

object PartitionPinSpec {

  /** Algorithm 1 as each variant calls it, before `repair`. */
  private val variants: Seq[(String, Array[Long] => Vector[Piece])] = Seq(
    "NeaTS" -> { ys =>
      val eps = NeaTS.epsGrid(ys)
      Partitioner.lossless(ys, NeaTS.shiftFor(ys, eps.max), NeaTS.defaultKinds, eps)
    },
    "LeaTS" -> { ys =>
      val eps = NeaTS.epsGrid(ys)
      Partitioner.lossless(ys, NeaTS.shiftFor(ys, eps.max), Seq(repro.core.approx.LinearKind), eps)
    },
    "SNeaTS" -> { ys =>
      val pairs = NeaTS.selectedPairs(ys)
      Partitioner.run(ys, NeaTS.shiftFor(ys, NeaTS.epsGrid(ys).max), pairs.map(_._1).toArray,
                      pairs.map(_._2).toArray, lossy = false)
    },
    "NeaTS-L" -> (ys => Partitioner.lossyPartition(ys, NeaTS.shiftFor(ys, 15), NeaTS.defaultKinds, 15)),
  )

  private lazy val inputs = TimeSeries.benchmarks(scale = 0.1).map(_.longs)

  private def digest(partition: Array[Long] => Vector[Piece]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    val word = ByteBuffer.allocate(8)
    def put(v: Long): Unit = { word.clear(); md.update(word.putLong(v).array) }
    for (ys <- inputs; p <- partition(ys)) {
      Seq(p.start.toLong, p.end.toLong, p.kind.id.toLong, p.eps).foreach(put)
      Seq(p.m, p.b, p.p3).foreach(v => put(java.lang.Double.doubleToRawLongBits(v)))
    }
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }

  /** Prints the current hashes. Run: `sbt "Test/runMain repro.core.neats.PartitionPinSpec"` */
  def main(args: Array[String]): Unit =
    for ((variant, partition) <- variants) println(s"""    "$variant" -> "${digest(partition)}",""")
}
