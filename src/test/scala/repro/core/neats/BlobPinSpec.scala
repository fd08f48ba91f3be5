package repro.core.neats

import java.nio.ByteBuffer
import java.security.MessageDigest
import repro.SparkSpec
import repro.data.TimeSeries

/** Pins the blob bytes: a SHA-256 over `toBytes` of NeaTS for the 16
  * analogues at a tenth of their benchmark sizes, each blob preceded by its
  * length. A change to the read path or to how the layout is held in memory
  * keeps the hash; a change of the blob format or of the partition
  * (`PartitionPinSpec`) updates it on purpose, and `BlobPinSpec.main` prints
  * it. `repro.tools.BlobDigest` stays the full check, per variant and
  * analogue at full size.
  */
class BlobPinSpec extends SparkSpec {
  import BlobPinSpec._

  private val expected = "4d55d49c8e53eaa0459243e0e4cbb1ee133275b3c9e89c259ae1eba1d2cf8294"

  test("NeaTS blobs of the 16 analogues are pinned") {
    assert(digest === expected)
  }
}

object BlobPinSpec {

  private def digest: String = {
    val md = MessageDigest.getInstance("SHA-256")
    for (ds <- TimeSeries.benchmarks(scale = 0.1)) {
      val blob = NeaTS.compress(ds.longs).toBytes
      md.update(ByteBuffer.allocate(4).putInt(blob.length).array)
      md.update(blob)
    }
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }

  /** Prints the current hash. Run: `sbt "Test/runMain repro.core.neats.BlobPinSpec"` */
  def main(args: Array[String]): Unit = println(digest)
}
