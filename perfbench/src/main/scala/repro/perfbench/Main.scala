package repro.perfbench

import java.io.File
import java.util.SplittableRandom
import org.apache.spark.sql.SparkSession
import repro.sparkts.NeaTSFiles

/** The NeaTS benchmark: one closed loop with one client thread over one
  * workload, in one process.
  *
  * {{{
  * Main --workload paper|offset --seed N --seconds S --trace 0|1 --work DIR
  * }}}
  *
  * With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
  * per-layer metrics of a traced run. The last line of standard output is
  * one JSON object; a readable table goes to standard error.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean, work: File)

  /** Values per `range(from, len)` call; fits the shortest series (4,096). */
  val RangeLen = 1024

  /** Target share of the measured window for compression rounds, after the
    * first compression pass; read rounds take the rest.
    */
  private def compressShare(workload: String): Double = if (workload == "paper") 0.5 else 0.6

  def parse(argv: Array[String]): Args = {
    val m = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val a = Args(need("workload"), need("seed").toLong, need("seconds").toInt,
                 need("trace") == "1", new File(need("work")))
    require(Set("paper", "offset")(a.workload), s"unknown workload ${a.workload}")
    require(a.seconds >= 1, "--seconds must be at least 1")
    a
  }

  def main(argv: Array[String]): Unit = {
    val code = try { run(parse(argv)); 0 } catch {
      case e: Throwable => e.printStackTrace(); 1
    }
    System.out.flush()
    System.exit(code)
  }

  private def run(args: Args): Unit = {
    deleteTree(new File(args.work, "tables"))
    val report = new Report
    var spark: SparkSession = null
    try {
      // Set-up: everything before the first timed operation, in one cold
      // JVM: data generation and warm-up.
      val t0 = System.nanoTime()
      val inputs = Inputs(args.workload, args.seed)
      val t1 = System.nanoTime()
      warmUp(inputs, new SplittableRandom(args.seed))
      val t2 = System.nanoTime()
      val setup = (t2 - t0) / 1e9
      System.err.println(f"set-up $setup%.2f s: inputs ${(t1 - t0) / 1e9}%.2f, warm-up ${(t2 - t1) / 1e9}%.2f")
      val rng = new SplittableRandom(args.seed * 0x9E3779B97F4A7C15L + 1)
      val core = new Core(inputs, report, rng)
      if (args.trace) {
        spark = Sql.session(args.work)
        val dir = new File(args.work, s"tables/${args.workload}")
        NeaTSFiles.write(dir.getPath, inputs.table)
        val sql = new Sql(spark, dir.getPath, inputs.table, report)
        Seq(Sql.Point(0), Sql.Range(0, sql.rangeRows), Sql.Full).foreach(Sql.run(sql, _))
        traced(args, inputs, core, sql, report, rng)
      } else endToEnd(args, inputs, core, report, setup)
    } finally if (spark != null) spark.stop()
    System.err.println(f"${args.workload} seed ${args.seed}: ${report.attempted} operations, " +
      f"${report.failed} failed, fail_pct ${report.failPct}%.4f\n${report.table}")
    println(report.json)
  }

  /** Runs every measured path on a little of the workload's data until the
    * JIT has compiled it.
    */
  private def warmUp(inputs: Inputs, rng: SplittableRandom): Unit = {
    val n = inputs.series.length
    val small = Seq(0, n / 2, n - 1).distinct.map(i => inputs.series(i).take(8_192)).toVector
    val core = new Core(Inputs(small, Array.emptyLongArray, small.indices.toVector), new Report, rng)
    core.compress(null)
    core.lookups(100_000, null)
    core.ranges(2_000, RangeLen)
    (0 until 30).foreach { _ => core.decompress(); core.load() }
    (0 until 300).foreach(_ => HostSpeed.kernelNs())
  }

  private def endToEnd(args: Args, inputs: Inputs, core: Core, report: Report, setup: Double): Unit = {
    import scala.collection.mutable.ArrayBuffer
    val scaler = new HostSpeed.Scaler
    // Every sample is kept raw and scaled to the reference kernel's nominal
    // speed (HostSpeed); metrics are medians of scaled samples.
    final class Samples {
      val raw, scaled = ArrayBuffer[Double]()
      def time(ns: Double, factor: Double): Unit = { raw += ns; scaled += ns * factor }
      def rate(perS: Double, factor: Double): Unit = { raw += perS; scaled += perS / factor }
    }
    // Series of one family are spread over the pass, so that each family's
    // calls see more than one stretch of the host's state.
    val series = inputs.series.indices.sortBy(i => (inputs.family.take(i).count(_ == inputs.family(i)), i)).toVector
    val rates = Array.fill(series.length)(new Samples)
    val lookupP50, lookupP99, rangeMBps, decodeMBps, loadMBps = new Samples
    var readRounds = 0
    def compressOne(i: Int): Unit = {
      val (rate, factor) = scaler(core.compressOne(i, null))
      rate.foreach(rates(i).rate(_, factor))
    }

    // The first compression pass builds what the read rounds query; its
    // calls count as samples. An untimed read pass over the full data
    // follows.
    val t0 = System.nanoTime()
    series.foreach(compressOne)
    core.serialize()
    val firstPass = (System.nanoTime() - t0) / 1e9
    core.lookups(100_000, null)
    core.ranges(500, RangeLen)
    core.decompress()
    core.load()

    var next = 0
    def compressRound(): Unit = {
      compressOne(series(next % series.length))
      next += 1
    }
    // Five short lookup and range samples, then one decode and one load pass.
    def readRound(): Unit = {
      (0 until 5).foreach { _ =>
        val (ns, f) = scaler(core.lookups(5_000, null))
        lookupP50.time(Stats.quantileBand(ns, 0.50), f)
        lookupP99.time(Stats.quantileBand(ns, 0.99), f)
        val (rs, g) = scaler(core.ranges(100, RangeLen))
        rangeMBps.rate(RangeLen * 8.0 / 1e6 / (Stats.median(rs) / 1e9), g)
      }
      val (d, f) = scaler(core.decompress())
      decodeMBps.rate(d, f)
      val (l, g) = scaler(core.load())
      loadMBps.rate(l, g)
      readRounds += 1
    }

    // A closed loop over two kinds of round that always runs the kind
    // furthest below its share of the elapsed time, so that both kinds are
    // sampled across the whole window.
    val share = compressShare(args.workload)
    var compressNs, readNs = 0L
    val start = System.nanoTime()
    val end = start + args.seconds * 1_000_000_000L
    while (System.nanoTime() < end || readRounds < 8) {
      val elapsed = System.nanoTime() - start
      val r0 = System.nanoTime()
      if (share * elapsed - compressNs > (1 - share) * elapsed - readNs) {
        compressRound()
        compressNs += System.nanoTime() - r0
      } else {
        readRound()
        readNs += System.nanoTime() - r0
      }
    }

    def median(b: ArrayBuffer[Double]) = Stats.median(b.toArray)
    // Compression: per family of like series, the median of its calls;
    // reported as the speed of one pass at those speeds.
    def passMBps(pick: Samples => ArrayBuffer[Double]) = {
      val family = series.groupBy(inputs.family).values.filter(_.exists(rates(_).raw.nonEmpty)).map { ids =>
        (ids.map(inputs.series(_).length * 8.0).sum, Stats.median(ids.flatMap(i => pick(rates(i))).toArray))
      }
      family.map(_._1).sum / family.map { case (b, r) => b / r }.sum
    }
    // Set-up is one cold operation that no kernel call brackets; it is
    // scaled by the run's median host speed.
    val factors = (rates.flatMap(s => s.scaled.zip(s.raw).map { case (a, b) => b / a }) ++
      lookupP50.raw.zip(lookupP50.scaled).map { case (r, a) => a / r }).toArray
    val hostFactor = Stats.median(factors)
    report.put("setup_s", setup * hostFactor, "s")
    report.put("compress_MBps", passMBps(_.scaled), "MB/s")
    report.put("size_pct", core.sizePct, "%")
    report.put("mem_pct", core.memPct, "%")
    report.put("lookup_ns_p50", median(lookupP50.scaled), "ns")
    report.put("load_MBps", median(loadMBps.scaled), "MB/s")

    System.err.println(f"first compression pass $firstPass%.1f s; window: compression ${compressNs / 1e9}%.1f s, " +
      f"reads ${readNs / 1e9}%.1f s; samples: ${rates.map(_.raw.length).sum} compress calls, " +
      s"${lookupP50.raw.length} lookup rounds of 5000 calls and range rounds of 100 calls, " +
      s"${decodeMBps.raw.length} decode and load passes")
    System.err.println(f"host speed: kernel at ${Stats.quantile(factors, 0.1)}%.3f / $hostFactor%.3f / " +
      f"${Stats.quantile(factors, 0.9)}%.3f of nominal (p10 / p50 / p90 over the samples); " +
      f"not bounded: lookup p99 ${median(lookupP99.scaled)}%.4g ns, range_MBps ${median(rangeMBps.scaled)}%.4g, " +
      f"decompress_MBps ${median(decodeMBps.scaled)}%.4g scaled; raw medians: setup_s $setup%.4g, " +
      f"compress_MBps ${passMBps(_.raw)}%.4f, lookup_ns_p50 ${median(lookupP50.raw)}%.4g, " +
      f"lookup_ns_p99 ${median(lookupP99.raw)}%.4g, range_MBps ${median(rangeMBps.raw)}%.4g, " +
      f"decompress_MBps ${median(decodeMBps.raw)}%.4g, load_MBps ${median(loadMBps.raw)}%.4g")
  }

  private def traced(args: Args, inputs: Inputs, core: Core, sql: Sql,
                     report: Report, rng: SplittableRandom): Unit = {
    val trace = new Trace
    core.compress(trace)
    val probes = new Probes(inputs, core, trace, report, rng)
    probes.compression()
    probes.layout()
    probes.bits(200_000)
    probes.decode(100_000)
    probes.serde()
    new SparkProbes(sql, trace, report, new SplittableRandom(args.seed ^ 0x51L)).run(10, 10, 4)
    probes.overhead(200_000)
    report.put("trace.spans", trace.size.toDouble, "count")
    trace.write(new File(args.work, s"trace-${args.workload}-${args.seed}.tsv"))
  }

  private def deleteTree(f: File): Unit = {
    if (f.isDirectory) Option(f.listFiles()).foreach(_.foreach(deleteTree))
    f.delete()
  }
}
