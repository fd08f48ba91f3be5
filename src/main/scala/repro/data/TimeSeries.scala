package repro.data

import java.util.Random

/** A synthetic analogue of one of the paper's 16 real-world datasets.
  *
  * `values` are doubles rounded to `digits` fractional digits (the paper's
  * datasets are textual fixed-precision); `longs` is the integer view used
  * by integer compressors (value * 10^digits, as §IV-A1 prescribes).
  */
final case class Dataset(name: String, digits: Int, values: Array[Double]) {
  lazy val longs: Array[Long] = {
    val scale = math.pow(10, digits)
    values.map(v => math.round(v * scale))
  }
  def n: Int = values.length
  def valueRange: Long = longs.max - longs.min
}

/** Deterministic generators mimicking the qualitative character of the 16
  * datasets in §IV-A1 (seasonal, random-walk, periodic-spiky, bursty,
  * trajectory, high-precision-noise, ...). See DESIGN.md for the mapping and
  * the scale-down rationale.
  */
object TimeSeries {

  /** (name, default benchmark length) in the paper's size order. */
  val benchSizes: Seq[(String, Int)] = Seq(
    "IT" -> 100_000, "US" -> 100_000, "ECG" -> 100_000, "WD" -> 100_000,
    "AP" -> 100_000, "UK" -> 80_000, "GE" -> 80_000, "LAT" -> 50_000,
    "LON" -> 50_000, "DP" -> 50_000, "CT" -> 30_000, "DU" -> 20_000,
    "BT" -> 10_000, "BW" -> 10_000, "BM" -> 2_000, "BP" -> 1_000,
  )

  val names: Seq[String] = benchSizes.map(_._1)

  def dataset(name: String, n: Int): Dataset = name match {
    case "IT"  => seasonalTemp("IT", n, digits = 2, seed = 11)
    case "US"  => stock("US", n, digits = 2, seed = 12, vol = 4e-4)
    case "ECG" => ecg("ECG", n, digits = 3, seed = 13)
    case "WD"  => windDirection("WD", n, digits = 2, seed = 14)
    case "AP"  => airPressure("AP", n, digits = 5, seed = 15)
    case "UK"  => stock("UK", n, digits = 1, seed = 16, vol = 6e-4)
    case "GE"  => stock("GE", n, digits = 3, seed = 17, vol = 5e-4)
    case "LAT" => trajectory("LAT", n, digits = 4, seed = 18, base = 39.9)
    case "LON" => trajectory("LON", n, digits = 4, seed = 19, base = 116.3)
    case "DP"  => seasonalTemp("DP", n, digits = 3, seed = 20)
    case "CT"  => cityTemp("CT", n, digits = 1, seed = 21)
    case "DU"  => dust("DU", n, digits = 3, seed = 22)
    case "BT"  => noisySeasonal("BT", n, digits = 9, seed = 23, noise = 1.2)
    case "BW"  => wind("BW", n, digits = 7, seed = 24)
    case "BM"  => birdMigration("BM", n, digits = 5, seed = 25)
    case "BP"  => stock("BP", n, digits = 4, seed = 26, vol = 3e-3)
    case other => throw new IllegalArgumentException(s"unknown dataset $other")
  }

  /** All 16 analogues at their default benchmark sizes. */
  def benchmarks(scale: Double = 1.0): Seq[Dataset] =
    benchSizes.map { case (name, n) => dataset(name, math.max(64, (n * scale).toInt)) }

  private def round(v: Double, digits: Int): Double = {
    val s = math.pow(10, digits)
    math.rint(v * s) / s
  }

  private def seasonalTemp(name: String, n: Int, digits: Int, seed: Long): Dataset = {
    val rng = new Random(seed)
    var ar = 0.0
    val daily = math.max(64.0, n / 80.0)
    val season = math.max(512.0, n / 4.0)
    val vs = Array.tabulate(n) { i =>
      ar = 0.95 * ar + rng.nextGaussian() * 0.25
      val v = 15.0 + 8.0 * math.sin(2 * math.Pi * i / daily) +
        6.0 * math.sin(2 * math.Pi * i / season) + ar
      round(v, digits)
    }
    Dataset(name, digits, vs)
  }

  private def stock(name: String, n: Int, digits: Int, seed: Long, vol: Double): Dataset = {
    val rng = new Random(seed)
    var p = 100.0
    var hold = 0
    var held = 0.0
    val vs = Array.tabulate(n) { _ =>
      if (hold > 0) { hold -= 1; held }
      else {
        p *= math.exp(rng.nextGaussian() * vol)
        if (rng.nextDouble() < 0.002) p *= math.exp(rng.nextGaussian() * 0.01) // jump
        held = round(p, digits)
        hold = rng.nextInt(6) // ticks repeat: plateaus are common in stock feeds
        held
      }
    }
    Dataset(name, digits, vs)
  }

  private def ecg(name: String, n: Int, digits: Int, seed: Long): Dataset = {
    val rng = new Random(seed)
    val beat = 280
    def bump(phase: Double, center: Double, width: Double, amp: Double): Double =
      amp * math.exp(-math.pow((phase - center) / width, 2))
    var wander = 0.0
    val vs = Array.tabulate(n) { i =>
      val phase = (i % beat).toDouble / beat
      wander = 0.999 * wander + rng.nextGaussian() * 0.002
      val v = bump(phase, 0.18, 0.03, 0.12) + // P
        bump(phase, 0.40, 0.008, -0.25) + bump(phase, 0.42, 0.006, 1.1) + // QRS
        bump(phase, 0.44, 0.008, -0.3) +
        bump(phase, 0.70, 0.06, 0.25) + // T
        wander + rng.nextGaussian() * 0.004
      round(v, digits)
    }
    Dataset(name, digits, vs)
  }

  private def windDirection(name: String, n: Int, digits: Int, seed: Long): Dataset = {
    val rng = new Random(seed)
    var d = 180.0
    var hold = 0
    val vs = Array.tabulate(n) { _ =>
      if (hold > 0) hold -= 1
      else {
        d += rng.nextGaussian() * 4.0
        if (d < 0) d += 360.0
        if (d >= 360) d -= 360.0
        if (rng.nextDouble() < 0.05) hold = rng.nextInt(20)
      }
      round(d, digits)
    }
    Dataset(name, digits, vs)
  }

  private def airPressure(name: String, n: Int, digits: Int, seed: Long): Dataset = {
    val rng = new Random(seed)
    var ar = 0.0
    val vs = Array.tabulate(n) { i =>
      ar = 0.98 * ar + rng.nextGaussian() * 0.002
      val v = 1013.25 + 8.0 * math.sin(2 * math.Pi * i / math.max(1024.0, n / 3.0)) + ar
      round(v, digits)
    }
    Dataset(name, digits, vs)
  }

  private def trajectory(name: String, n: Int, digits: Int, seed: Long, base: Double): Dataset = {
    val rng = new Random(seed)
    var pos = base
    var vel = 0.0
    var left = 0
    val vs = Array.tabulate(n) { _ =>
      if (left == 0) {
        left = 100 + rng.nextInt(900)
        vel = if (rng.nextDouble() < 0.3) 0.0 else rng.nextGaussian() * 2e-3 // stop or move
      }
      left -= 1
      pos += vel + rng.nextGaussian() * 1e-4
      round(pos, digits)
    }
    Dataset(name, digits, vs)
  }

  private def cityTemp(name: String, n: Int, digits: Int, seed: Long): Dataset = {
    val rng = new Random(seed)
    val perCity = math.max(365, n / 20)
    val vs = new Array[Double](n)
    var i = 0
    while (i < n) {
      val mean = -5.0 + rng.nextDouble() * 30.0
      val amp = 5.0 + rng.nextDouble() * 15.0
      val phase = rng.nextDouble() * 2 * math.Pi
      val len = math.min(perCity, n - i)
      var j = 0
      while (j < len) {
        vs(i + j) = round(mean + amp * math.sin(2 * math.Pi * j / 365.0 + phase) +
          rng.nextGaussian() * 2.5, digits)
        j += 1
      }
      i += len
    }
    Dataset(name, digits, vs)
  }

  private def dust(name: String, n: Int, digits: Int, seed: Long): Dataset = {
    val rng = new Random(seed)
    var burst = 0.0
    val vs = Array.tabulate(n) { _ =>
      if (rng.nextDouble() < 0.005) burst += math.exp(rng.nextGaussian() * 0.8 + 3.0)
      burst *= 0.97 // exponential decay after a dust burst
      val v = math.exp(rng.nextGaussian() * 0.4 + 2.0) + burst
      round(v, digits)
    }
    Dataset(name, digits, vs)
  }

  private def noisySeasonal(name: String, n: Int, digits: Int, seed: Long, noise: Double): Dataset = {
    val rng = new Random(seed)
    val vs = Array.tabulate(n) { i =>
      val v = 12.0 + 9.0 * math.sin(2 * math.Pi * i / math.max(512.0, n / 4.0)) +
        rng.nextGaussian() * noise
      round(v, digits) // 7-9 digits keep ~25-30 bits of incompressible noise
    }
    Dataset(name, digits, vs)
  }

  private def wind(name: String, n: Int, digits: Int, seed: Long): Dataset = {
    val rng = new Random(seed)
    var ar = 0.0
    val vs = Array.tabulate(n) { _ =>
      ar = 0.9 * ar + rng.nextGaussian() * 0.5
      val u = math.max(1e-9, rng.nextDouble())
      val gust = 6.0 * math.pow(-math.log(u), 0.7) // Weibull-ish speeds
      round(math.max(0.0, 0.6 * gust + ar + 4.0), digits)
    }
    Dataset(name, digits, vs)
  }

  private def birdMigration(name: String, n: Int, digits: Int, seed: Long): Dataset = {
    val rng = new Random(seed)
    val vs = Array.tabulate(n) { i =>
      val t = i.toDouble / n
      val v = 10.0 + 35.0 * t + 6.0 * math.sin(2 * math.Pi * 3 * t) +
        rng.nextGaussian() * 0.02
      round(v, digits)
    }
    Dataset(name, digits, vs)
  }
}
