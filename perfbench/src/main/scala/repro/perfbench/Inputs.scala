package repro.perfbench

import java.util.SplittableRandom
import repro.data.TimeSeries

/** The arrays one workload hands to the program, all derived from the seed.
  *
  * @param series the series compressed one `NeaTS.compress` call each
  * @param table  the values of the Spark table, written with `NeaTSFiles.write`
  * @param family for each series, the source it was cut from: series of
  *               one family hold like data and compress at a like speed
  */
final case class Inputs(series: Vector[Array[Long]], table: Array[Long], family: Vector[Int]) {
  val points: Long = series.map(_.length.toLong).sum
}

object Inputs {

  /** The ROADMAP baseline analogues: long fragments (IT) to short ones (ECG). */
  val Analogues: Vector[String] = Vector("US", "IT", "ECG", "LAT", "BP")

  /** Rows per Spark row group, as `NeaTSFiles.write` uses by default. */
  val GroupRows = 8192

  def apply(workload: String, seed: Long): Inputs = workload match {
    case "paper" => paper(seed)
    case "offset" => offset(seed)
    case other => throw new IllegalArgumentException(s"unknown workload $other")
  }

  private def window(name: String, generated: Int, len: Int, rng: SplittableRandom): Array[Long] = {
    val from = rng.nextInt(generated - len + 1)
    java.util.Arrays.copyOfRange(TimeSeries.dataset(name, generated).longs, from, from + len)
  }

  /** Table III's setting: 400K points of each analogue in a seeded window,
    * cut into twenty 20K-point series (100 series, 2M points; about 2.2 MB
    * compressed, above one core's 2 MiB L2). Short series keep each
    * `NeaTS.compress` call short, so that its time sees one host state.
    */
  private def paper(seed: Long): Inputs = {
    val rng = new SplittableRandom(seed)
    val series = Analogues.flatMap { name =>
      val w = window(name, 420_000, 400_000, rng)
      (0 until 20).map(i => java.util.Arrays.copyOfRange(w, i * 20_000, (i + 1) * 20_000))
    }
    Inputs(series, sqlSample(series, 200_000), series.indices.map(_ / 20).toVector)
  }

  /** 70 chunks of 4,096 points, two per (analogue, baseline exponent)
    * pair, each lifted by a constant baseline just below 2^e for e in
    * 24..30: counters or high-precision sensors whose level is large next
    * to their local variation. Chunk k of an analogue starts at a seeded
    * offset of less than 4,096 past position 8,192 k. The two chunks of an
    * (analogue, exponent) pair form one family.
    */
  private def offset(seed: Long): Inputs = {
    val rng = new SplittableRandom(seed)
    val sources = Analogues.map(name => TimeSeries.dataset(name, 120_000).longs)
    val series = (for { a <- Analogues.indices; k <- 0 until 14 } yield {
      val src = sources(a)
      val e = 24 + k % 7
      val from = k * 8_192 + rng.nextInt(4096)
      val base = (1L << e) - rng.nextInt(1 << 16)
      Array.tabulate(4096)(i => src(from + i) + base)
    }).toVector
    Inputs(series, sqlSample(series, 40_000), series.indices.map(i => i / 14 * 7 + i % 7).toVector)
  }

  /** About `rows` values: an equal prefix of every series, concatenated. */
  private def sqlSample(series: Vector[Array[Long]], rows: Int): Array[Long] = {
    val each = math.max(1, rows / series.length)
    series.flatMap(s => s.take(each)).toArray
  }
}
