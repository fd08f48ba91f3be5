package repro.perfbench

import java.lang.{Boolean => JBool, Integer => JInt, Long => JLong}
import java.util.SplittableRandom
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.connector.read.{Batch, InputPartition}
import repro.core.neats.NeaTSCompressed

/** Per-layer probes of the traced run. Each probe times calls into one
  * layer from the benchmark's own code, records them as spans, and works
  * on a fixed, seeded amount of input so that its counts repeat exactly.
  */
final class Probes(inputs: Inputs, core: Core, trace: Trace, report: Report, rng: SplittableRandom) {
  private val raw = inputs.series
  private val ids = raw.indices.filter(core.compressed(_) != null).toVector

  private def layer(metrics: (String, String)*)(bind: => () => Seq[Double]): Unit =
    Probes.layer(report, metrics)(bind)

  /** Field `name` of every compressed series; call it while binding. */
  private def fieldOf(name: String): Vector[AnyRef] = {
    val get = Reflect.fn(classOf[NeaTSCompressed], name)
    ids.map(i => get(core.compressed(i)))
  }

  private def medianOf(rounds: Int)(body: => Double): Double =
    Stats.median(Array.fill(rounds)(body))

  // ------------------------------------------------------------ compression

  /** approx, partition, repair and layout.build on a subset of the series
    * of at most about 500K points, each right after `NeaTS.compress` on the
    * same series, whose wall time the four parts should account for. Per
    * series, every part and the wall time are the least of
    * [[Probes.CompressionReps]] passes.
    */
  def compression(): Unit = {
    val stride = math.max(1, math.ceil(inputs.points / 500_000.0).toInt)
    val subset = ids.filter(_ % stride == 0)
    layer("approx.fit_s" -> "s", "approx.fits" -> "count", "approx.ns_per_point" -> "ns/point",
          "partition.s" -> "s", "partition.dag_s" -> "s", "partition.pairs" -> "count",
          "repair.s" -> "s", "repair.splits" -> "count", "layout.build_s" -> "s",
          "compress.wall_s" -> "s", "compress.accounted_pct" -> "%") {
      val (longs, long, int) = (classOf[Array[Long]], JLong.TYPE, JInt.TYPE)
      val kindClass = Class.forName("repro.core.approx.FunctionKind")
      val regionClass = Class.forName("repro.core.approx.FeasibleRegion")
      val neats = Reflect.module("repro.core.neats.NeaTS")
      val partitioner = Reflect.module("repro.core.neats.Partitioner")
      val layoutModule = Reflect.module("repro.core.neats.NeaTSCompressed")
      val convexFit = Reflect.module("repro.core.approx.ConvexFit")
      val epsGrid = Reflect.fn(neats.getClass, "epsGrid", longs)
      val shiftFor = Reflect.fn(neats.getClass, "shiftFor", longs, long)
      val repair = Reflect.fn(neats.getClass, "repair", longs, long, classOf[Vector[_]], JBool.TYPE)
      val lossless = Reflect.fn(partitioner.getClass, "lossless", longs, long, classOf[Seq[_]], classOf[Seq[_]])
      val build = Reflect.fn(layoutModule.getClass, "build", longs, long, classOf[Vector[_]])
      val fit = Reflect.fn(convexFit.getClass, "longestFragment", longs, long, int, kindClass, long, regionClass)
      val fitEnd = Reflect.fn(Class.forName("repro.core.approx.Fit"), "end")
      val region = regionClass.getConstructor().newInstance()
      val kinds = Reflect.fn(neats.getClass, "defaultKinds")(neats).asInstanceOf[Seq[AnyRef]]
      () => {
        val parts = Seq("compress.probe", "approx.chain", "partition", "repair", "layout.build")
        val best = scala.collection.mutable.HashMap[String, Long]().withDefaultValue(0L)
        var fits, pairs, splits, pairPoints = 0L
        subset.foreach { i =>
          val ys = raw(i)
          val eps = epsGrid(neats, ys).asInstanceOf[Seq[AnyRef]].map(Reflect.long).distinct.sorted
          val shift = JLong.valueOf(Reflect.long(shiftFor(neats, ys, JLong.valueOf(eps.max))))
          val boxedEps = eps.map(e => JLong.valueOf(e))
          pairs += kinds.length * eps.length
          pairPoints += ys.length.toLong * kinds.length * eps.length
          // The parts are timed one after another, and the host can slow one
          // of them and not the next: the least of several passes compares
          // like with like.
          val least = scala.collection.mutable.HashMap[String, Long]()
          for (rep <- 0 until Probes.CompressionReps) {
            val from = trace.size
            trace.span("compress.probe", i)(repro.core.neats.NeaTS.compress(ys))
            // Algorithm 1 refreshes each (kind, eps) pair exactly where its
            // last fragment ended: the greedy chain below makes the same fits.
            trace.span("approx", i) {
              for (kind <- kinds; e <- boxedEps) trace.span("approx.chain", i) {
                var start = 0
                while (start < ys.length) {
                  val f = fit(convexFit, ys, shift, JInt.valueOf(start), kind, e, region)
                  start = math.max(Reflect.long(fitEnd(f)).toInt, start + 1)
                  if (rep == 0) fits += 1
                }
              }
            }
            val pieces = trace.span("partition", i)(lossless(partitioner, ys, shift, kinds, eps))
            val repaired = trace.span("repair", i)(repair(neats, ys, shift, pieces, JBool.FALSE))
            val built = trace.span("layout.build", i)(build(layoutModule, ys, shift, repaired))
            val frags = core.compressed(i).numFragments
            report.check(built.asInstanceOf[NeaTSCompressed].numFragments == frags)
            if (rep == 0) splits += frags - pieces.asInstanceOf[Seq[_]].length
            val self = trace.selfTimes(from, trace.size)
            parts.foreach(p => least(p) = math.min(least.getOrElse(p, Long.MaxValue), self.getOrElse(p, 0L)))
          }
          parts.foreach(p => best(p) += least(p))
        }
        val (wallNs, fitNs, partNs, repairNs, buildNs) =
          (best("compress.probe"), best("approx.chain"), best("partition"), best("repair"), best("layout.build"))
        Seq(fitNs / 1e9, fits.toDouble, fitNs.toDouble / pairPoints,
            partNs / 1e9, (partNs - fitNs) / 1e9, pairs.toDouble,
            repairNs / 1e9, splits.toDouble, buildNs / 1e9,
            wallNs / 1e9, 100.0 * (partNs + repairNs + buildNs) / wallNs)
      }
    }
  }

  // ----------------------------------------------------------------- layout

  def layout(): Unit = {
    val frags = ids.map(core.compressed(_).numFragments.toLong).sum
    report.put("layout.frags", frags.toDouble, "count")
    report.put("layout.mean_frag_len", inputs.points.toDouble / frags, "points")
    val shares = Seq("LinearKind" -> "linear", "RadicalKind" -> "radical",
                     "ExponentialKind" -> "exp", "QuadraticKind" -> "quad")
    layer(shares.map { case (_, s) => s"layout.kind_share.$s" -> "%" }: _*) {
      val ks = fieldOf("k")
      val kindAt = Reflect.bind(ks.head.getClass, "apply", classOf[ObjIntToInt], JInt.TYPE)
      val kinds = Reflect.module("repro.core.approx.FunctionKind")
      val byId = Reflect.fn(kinds.getClass, "byId", JInt.TYPE)
      () => {
        val counts = scala.collection.mutable.HashMap[String, Long]().withDefaultValue(0L)
        ids.indices.foreach { j =>
          var f = 0
          while (f < core.compressed(ids(j)).numFragments) {
            counts(byId(kinds, JInt.valueOf(kindAt(ks(j), f))).toString) += 1
            f += 1
          }
        }
        shares.map { case (k, _) => 100.0 * counts(k) / frags }
      }
    }
    // The sum over every series of `method` on field `f`, divided by `per`.
    def perUnit(f: String, method: String, per: Double) = {
      val xs = fieldOf(f)
      val size = Reflect.fn(xs.head.getClass, method)
      () => Seq(xs.map(x => Reflect.long(size(x))).sum.toDouble / per)
    }
    for (f <- Seq("s", "o", "k", "b"))
      layer(s"size.${f}_bits_per_frag" -> "bits/frag")(perUnit(f, "sizeInBits", frags))
    layer("size.p_bits_per_frag" -> "bits/frag") {
      val ps = fieldOf("p").map(_.asInstanceOf[Array[Array[Double]]])
      () => Seq(ps.map(_.map(_.length.toLong * 64 + 32).sum).sum.toDouble / frags)
    }
    layer("size.c_bits_per_value" -> "bits/value")(perUnit("c", "lengthInBits", inputs.points))
    report.put("size.blob_overhead_pct", core.sizePct - core.memPct, "%")
  }

  // ------------------------------------------------------------------- bits

  /** The steps of Algorithm 3, one structure at a time, on a fixed stream
    * of lookups drawn like the end-to-end one; median of five rounds.
    */
  def bits(queries: Int): Unit = {
    val pos = new core.Positions(1)
    val sid = new Array[Int](queries)
    val idx = new Array[Int](queries)
    (0 until queries).foreach { j => val (s, i) = pos.draw(); sid(j) = s; idx(j) = i }
    val slot = { val m = new Array[Int](raw.length); ids.indices.foreach(j => m(ids(j)) = j); m }
    def obj(xs: Vector[AnyRef], j: Int): AnyRef = xs(slot(sid(j)))
    // Shared bindings; a lazy val that fails to bind is retried, and so
    // fails, in every probe that needs it.
    lazy val s = fieldOf("s")
    lazy val sRank = Reflect.bind(s.head.getClass, "rank", classOf[ObjLongToInt], JLong.TYPE)
    lazy val sGet = Reflect.bind(s.head.getClass, "apply", classOf[ObjIntToLong], JInt.TYPE)
    lazy val frag = Array.tabulate(queries)(j => sRank(obj(s, j), idx(j).toLong) - 1)
    lazy val k = fieldOf("k")
    lazy val kGet = Reflect.bind(k.head.getClass, "apply", classOf[ObjIntToInt], JInt.TYPE)
    lazy val kRank = Reflect.bind(k.head.getClass, "rank", classOf[ObjIntIntToInt], JInt.TYPE, JInt.TYPE)
    lazy val kind = Array.tabulate(queries)(j => kGet(obj(k, j), frag(j)))
    lazy val o = fieldOf("o")
    lazy val b = fieldOf("b")
    lazy val oGet = Reflect.bind(o.head.getClass, "apply", classOf[ObjIntToLong], JInt.TYPE)
    lazy val bGet = Reflect.bind(b.head.getClass, "apply", classOf[ObjIntToLong], JInt.TYPE)
    var sink = 0L
    def perCall(name: String)(call: Int => Long): () => Seq[Double] = () => Seq(medianOf(5) {
      val id = trace.begin(name, 0)
      val t0 = System.nanoTime()
      var j = 0
      while (j < queries) { sink += call(j); j += 1 }
      val ns = System.nanoTime() - t0
      trace.end(id)
      ns.toDouble / queries
    })
    layer("bits.s_rank_ns" -> "ns") {
      val (ss, rank) = (s, sRank)
      perCall("bits.s_rank")(j => rank(obj(ss, j), idx(j).toLong))
    }
    layer("bits.s_get_ns" -> "ns") {
      val (ss, get, fr) = (s, sGet, frag)
      perCall("bits.s_get")(j => get(obj(ss, j), fr(j)))
    }
    layer("bits.o_get_ns" -> "ns") {
      val (os, get, fr) = (o, oGet, frag)
      perCall("bits.o_get")(j => get(obj(os, j), fr(j)))
    }
    layer("bits.b_get_ns" -> "ns") {
      val (bs, get, fr) = (b, bGet, frag)
      perCall("bits.b_get")(j => get(obj(bs, j), fr(j)))
    }
    layer("bits.k_get_ns" -> "ns") {
      val (ks, get, fr) = (k, kGet, frag)
      perCall("bits.k_get")(j => get(obj(ks, j), fr(j)).toLong)
    }
    layer("bits.k_rank_ns" -> "ns") {
      val (ks, rank, kd, fr) = (k, kRank, kind, frag)
      perCall("bits.k_rank")(j => rank(obj(ks, j), kd(j), fr(j)).toLong)
    }
    layer("bits.p_get_ns" -> "ns") {
      val p = fieldOf("p").map(_.asInstanceOf[Array[Array[Double]]])
      val kinds = Reflect.module("repro.core.approx.FunctionKind")
      val byId = Reflect.fn(kinds.getClass, "byId", JInt.TYPE)
      val nParamsOf = Reflect.fn(Class.forName("repro.core.approx.FunctionKind"), "nParams")
      val nParams = (0 until 4).map(id => Reflect.long(nParamsOf(byId(kinds, JInt.valueOf(id)))).toInt)
      val (ks, rank, kd, fr) = (k, kRank, kind, frag)
      val base = Array.tabulate(queries)(j => rank(obj(ks, j), kd(j), fr(j)) * nParams(kd(j)))
      perCall("bits.p_get")(j => java.lang.Double.doubleToRawLongBits(p(slot(sid(j)))(kd(j))(base(j))))
    }
    layer("bits.c_get_ns" -> "ns") {
      val c = fieldOf("c")
      val cGet = Reflect.bind(c.head.getClass, "getSigned", classOf[ObjLongIntToLong], JLong.TYPE, JInt.TYPE)
      val (fr, bs, os, ss) = (frag, b, o, s)
      val (bGetter, oGetter, sGetter) = (bGet, oGet, sGet)
      val width = Array.tabulate(queries)(j => bGetter(obj(bs, j), fr(j)).toInt)
      val off = Array.tabulate(queries)(j =>
        oGetter(obj(os, j), fr(j)) + (idx(j) - sGetter(obj(ss, j), fr(j))) * width(j))
      perCall("bits.c_get")(j => cGet(obj(c, j), off(j), width(j)))
    }
    if (sink == 42L) System.err.println("")
  }

  // --------------------------------------------------------- decode / serde

  def decode(rangeCalls: Int): Unit = {
    val pos = new core.Positions(1)
    val starts = Array.fill(rangeCalls)(pos.draw())
    layer("decode.ns_per_value" -> "ns/value", "decode.range_setup_ns" -> "ns") { () =>
      val all = medianOf(3) {
        trace.span("decode.all", 0) {
          val t0 = System.nanoTime()
          ids.foreach(i => core.compressed(i).decompressAll())
          (System.nanoTime() - t0).toDouble / inputs.points
        }
      }
      val rangeSetup = medianOf(3) {
        trace.span("decode.range1", 0) {
          var sink = 0L
          val t0 = System.nanoTime()
          starts.foreach { case (s, i) => sink += core.compressed(s).range(i, 1)(0) }
          val ns = System.nanoTime() - t0
          if (sink == 42L) System.err.println("")
          ns.toDouble / rangeCalls
        }
      }
      Seq(all, rangeSetup)
    }
  }

  def serde(): Unit = {
    val blobBytes = core.blobs.map(_.length.toLong).sum
    layer("serde.to_bytes_MBps" -> "MB/s") { () =>
      Seq(medianOf(3) {
        trace.span("serde.to_bytes", 0) {
          val t0 = System.nanoTime()
          ids.foreach(i => core.compressed(i).toBytes)
          blobBytes / 1e6 / ((System.nanoTime() - t0) / 1e9)
        }
      })
    }
    // The succinct constructors that fromBytes runs on the blob's arrays.
    layer("serde.read_arrays_ms" -> "ms", "serde.rebuild_ms" -> "ms") {
      val (longs, int) = (classOf[Array[Long]], JInt.TYPE)
      val ef = Reflect.module("repro.core.bits.EliasFano")
      val fw = Reflect.module("repro.core.bits.FixedWidthArray")
      val wt = Reflect.module("repro.core.bits.WaveletTree")
      val efApply = Reflect.fn(ef.getClass, "apply", longs)
      val fwApply = Reflect.fn(fw.getClass, "apply", longs, int)
      val wtApply = Reflect.fn(wt.getClass, "apply", classOf[Array[Int]], int)
      def arr(f: String) = {
        val xs = fieldOf(f)
        val toArray = Reflect.fn(xs.head.getClass, "toArray")
        xs.map(toArray(_))
      }
      val (s, o, b, k) = (arr("s"), arr("o"), arr("b"), arr("k"))
      val (six, sigma) = (JInt.valueOf(6), JInt.valueOf(4))
      () => {
        val fromMs = medianOf(3) {
          trace.span("serde.from_bytes", 0) {
            val t0 = System.nanoTime()
            core.blobs.foreach(NeaTSCompressed.fromBytes)
            (System.nanoTime() - t0) / 1e6
          }
        }
        val rebuildMs = medianOf(3) {
          trace.span("serde.rebuild", 0) {
            val t0 = System.nanoTime()
            ids.indices.foreach { j =>
              efApply(ef, s(j)); efApply(ef, o(j)); fwApply(fw, b(j), six); wtApply(wt, k(j), sigma)
            }
            (System.nanoTime() - t0) / 1e6
          }
        }
        Seq(fromMs - rebuildMs, rebuildMs)
      }
    }
  }

  /** The same lookup stream with and without a span per call; the extra
    * time per call is the tracing overhead, in percent.
    */
  def overhead(queries: Int): Unit = {
    def pass(traced: Boolean): Double = {
      val t0 = System.nanoTime()
      core.lookups(queries, if (traced) trace else null)
      (System.nanoTime() - t0).toDouble / queries
    }
    val plain = new Array[Double](3)
    val traced = new Array[Double](3)
    (0 until 3).foreach { r => plain(r) = pass(false); traced(r) = pass(true) }
    report.put("trace.overhead_pct", 100.0 * (Stats.median(traced) - Stats.median(plain)) / Stats.median(plain), "%")
  }
}

object Probes {

  /** Passes of the compression probes over each series. */
  val CompressionReps = 3

  /** Binds one layer's probe targets, then measures it. `bind` looks up
    * every target and returns the measurement. A missing target leaves the
    * layer's metrics out of the report and says so on standard error. An
    * exception the program throws, while binding or measuring, is a failed
    * operation, and the layer's metrics are left out too.
    */
  def layer(report: Report, metrics: Seq[(String, String)])(bind: => () => Seq[Double]): Unit = {
    val names = metrics.map(_._1).mkString(", ")
    try Reflect.bound(bind) match {
      case Left(missing) => System.err.println(s"layer absent ($names): $missing")
      case Right(measure) => metrics.zip(measure()).foreach { case ((name, unit), v) => report.put(name, v, unit) }
    } catch {
      case e: Exception =>
        report.check(false)
        val cause = e match { case i: java.lang.reflect.InvocationTargetException => i.getCause; case _ => e }
        System.err.println(s"layer failed ($names): $cause")
    }
  }
}

/** sparkts probes: scan planning, row-group reads and the partition reader,
  * driven directly for the same predicates as a fixed set of SQL queries.
  */
final class SparkProbes(sql: Sql, trace: Trace, report: Report, rng: SplittableRandom) {

  def run(points: Int, ranges: Int, fulls: Int): Unit = {
    val queries = rng.ints(points.toLong, 0, sql.n).toArray.map(Sql.Point(_): Sql.Query) ++
      rng.ints(ranges.toLong, 0, sql.n - sql.rangeRows + 1).toArray.map(Sql.Range(_, sql.rangeRows): Sql.Query) ++
      Array.fill[Sql.Query](fulls)(Sql.Full)
    Probes.layer(report, Seq("sparkts.plan_ms" -> "ms", "sparkts.groups_planned" -> "count",
      "sparkts.groups_read" -> "count", "sparkts.read_group_ms" -> "ms",
      "sparkts.reader_ns_per_row" -> "ns/row", "sparkts.engine_ms" -> "ms")) {
      val scanCtor = Class.forName("repro.sparkts.NeaTSScan")
        .getConstructor(classOf[String], JLong.TYPE, JLong.TYPE)
      val files = Reflect.module("repro.sparkts.NeaTSFiles")
      val groupClass = Class.forName("repro.sparkts.NeaTSFiles$Group")
      val readMeta = Reflect.fn(files.getClass, "readMeta", classOf[String])
      val readGroup = Reflect.fn(files.getClass, "readGroup", classOf[String], groupClass)
      val (start, count) = (Reflect.fn(groupClass, "start"), Reflect.fn(groupClass, "count"))
      val groups = readMeta(files, sql.path).asInstanceOf[Product].productElement(1).asInstanceOf[Seq[AnyRef]]
      () => {
        var rows, planned, read, groupReads = 0L
        queries.zipWithIndex.foreach { case (q, op) =>
          val (lo, hi) = q match {
            case Sql.Point(i) => (i.toLong, i.toLong)
            case Sql.Range(l, len) => (l.toLong, l.toLong + len - 1)
            case Sql.Full => (Long.MinValue, Long.MaxValue)
          }
          trace.span("sql", op)(Sql.run(sql, q))
          val (batch, parts) = trace.span("sparkts.plan", op) {
            val b = scanCtor.newInstance(sql.path, JLong.valueOf(lo), JLong.valueOf(hi)).asInstanceOf[Batch]
            (b, b.planInputPartitions(): Array[InputPartition])
          }
          val factory = batch.createReaderFactory()
          parts.foreach { p =>
            trace.span("sparkts.reader", op) {
              val r = factory.createReader(p)
              var got = 0L
              while (r.next()) { r.get(): InternalRow; got += 1 }
              r.close()
              rows += got
              if (got > 0) read += 1
            }
          }
          groups.filter { g =>
            val first = Reflect.long(start(g))
            first <= hi && first + Reflect.long(count(g)) - 1 >= lo
          }.foreach { g =>
            trace.span("sparkts.read_group", op)(readGroup(files, sql.path, g))
            groupReads += 1
          }
          planned += parts.length
        }
        val self = trace.selfTimes().withDefaultValue(0L)
        val (sqlNs, planNs, readerNs, groupNs) =
          (self("sql"), self("sparkts.plan"), self("sparkts.reader"), self("sparkts.read_group"))
        val nq = queries.length.toDouble
        Seq(planNs / nq / 1e6, planned.toDouble, read.toDouble, groupNs / 1e6 / math.max(1L, groupReads),
            readerNs.toDouble / math.max(1L, rows), (sqlNs - planNs - readerNs) / nq / 1e6)
      }
    }
  }
}
