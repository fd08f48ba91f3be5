package repro.bench

import repro.baselines._
import repro.baselines.alp.ALPCodec
import repro.baselines.dac.DAC
import repro.baselines.gp._
import repro.baselines.leco.LeCo
import repro.baselines.lossy.{AdaptiveApprox, PLA}
import repro.baselines.xor._
import repro.core.neats.{NeaTS, NeaTSCompressed, Partitioner}
import repro.data.{Dataset, TimeSeries}

/** Shared measurement harness for the Table II / Table III reproductions.
  * All speeds are JVM wall-clock, best of 3 (the first run warms the JIT;
  * NeaTS compression fits on the common fork-join pool, the rest is
  * single-threaded); the paper's absolute C++ numbers differ by a
  * platform factor, the comparison targets are the relative positions (see
  * EXPERIMENTS.md).
  */
object Harness {

  // ---------------------------------------------------------------- adapters

  /** NeaTSCompressed exposed through the uniform CompressedSeq interface. */
  final class NeaTSSeq(c: NeaTSCompressed) extends CompressedSeq {
    def n: Int = c.n
    def sizeInBits: Long = c.sizeInBits
    def decompressAll(): Array[Long] = c.decompressAll()
    def get(i: Int): Long = c(i)
    override def range(from: Int, len: Int): Array[Long] = c.range(from, len)
  }

  /** One lossless competitor: the payload it compresses and its codec over
    * that payload. `family` is "gp" (general-purpose) or "sp"
    * (special-purpose), matching the two families of Table III.
    */
  final case class Adapter(name: String, family: String, payload: Dataset => Array[Long],
                           codec: Array[Long] => CompressedSeq) {
    /** The compressed form of `ds`: both steps, as one timed call. */
    def build(ds: Dataset): CompressedSeq = codec(payload(ds))
  }

  private val longs: Dataset => Array[Long] = _.longs
  private val doubleBits: Dataset => Array[Long] = ds => Codec.doublesToBits(ds.values)

  /** The 13 lossless compressors of Table III, in the paper's column order.
    * Double-native codecs (XOR family, ALP) get the raw double bits; the
    * rest get the 64-bit integer view — exactly the paper's §IV-A1 protocol.
    * Original size is 64 bits/value either way.
    */
  val losslessAdapters: Seq[Adapter] = Seq(
    Adapter("Xz", "gp", longs, new BlockStore(XzCodec, _)),
    Adapter("Brotli*", "gp", longs, new BlockStore(BrotliLikeCodec, _)),
    Adapter("Zstd", "gp", longs, new BlockStore(ZstdCodec, _)),
    Adapter("Lz4", "gp", longs, new BlockStore(Lz4Codec, _)),
    Adapter("Snappy", "gp", longs, new BlockStore(SnappyCodec, _)),
    Adapter("Gorilla", "sp", doubleBits, new BlockStore(GorillaCodec, _)),
    Adapter("Chimp", "sp", doubleBits, new BlockStore(ChimpCodec, _)),
    Adapter("Chimp128", "sp", doubleBits, new BlockStore(Chimp128Codec, _)),
    Adapter("TSXor", "sp", doubleBits, new BlockStore(TSXorCodec, _)),
    Adapter("DAC", "sp", longs, DAC.compress(_)),
    Adapter("LeCo", "sp", longs, LeCo.compress),
    Adapter("ALP", "sp", doubleBits, new BlockStore(ALPCodec, _)),
    Adapter("NeaTS", "sp", longs, ys => new NeaTSSeq(NeaTS.compress(ys))),
  )

  /** Compression-speed variants of NeaTS (Figure 2 discussion, §IV-C1). */
  val neatsVariants: Seq[Adapter] = Seq(
    Adapter("LeaTS", "sp", longs, ys => new NeaTSSeq(NeaTS.compressLinearOnly(ys))),
    Adapter("SNeaTS", "sp", longs, ys => new NeaTSSeq(NeaTS.compressSelected(ys))),
  )

  // ------------------------------------------------------------ measurements

  final case class LosslessRow(codec: String, family: String, dataset: String, n: Int,
                               ratioPct: Double, compressMBs: Double,
                               decompressMBs: Double, randomAccessMBs: Double)

  /** Best-of-k wall clock in nanoseconds; the first run warms the JIT. */
  private def bestOf[A](k: Int)(body: => A): (A, Long) = {
    var best = Long.MaxValue
    var last: A = null.asInstanceOf[A]
    (0 until k).foreach { _ =>
      val t0 = System.nanoTime()
      last = body
      best = math.min(best, System.nanoTime() - t0)
    }
    (last, best)
  }

  /** Random-access queries per timing for block-wise codecs. Each query
    * decodes a whole block of 1,000 values, so 20K of them took about 23 s
    * per dataset for Xz.
    */
  private val BlockStoreQueries = 1000

  def measureLossless(adapter: Adapter, ds: Dataset, raQueries: Int = 20000): LosslessRow = {
    val bytes = ds.n.toDouble * 8
    val (compressed, cNs) = bestOf(3)(adapter.build(ds))
    val (decoded, dNs) = bestOf(3)(compressed.decompressAll())
    require(decoded.length == ds.n, s"${adapter.name} decoded wrong length on ${ds.name}")
    val rng = new java.util.Random(97)
    val nQueries = compressed match {
      case _: BlockStore => math.min(raQueries, BlockStoreQueries)
      case _ => raQueries
    }
    val queries = Array.fill(nQueries)(rng.nextInt(ds.n))
    var sink = 0L
    val (_, raNs) = bestOf(3) {
      var i = 0
      while (i < queries.length) { sink ^= compressed.get(queries(i)); i += 1 }
    }
    if (sink == 42L) println("") // keep the sink live
    LosslessRow(
      adapter.name, adapter.family, ds.name, ds.n,
      ratioPct = compressed.sizeInBits * 100.0 / (ds.n.toLong * 64),
      compressMBs = bytes / 1e6 / (cNs / 1e9),
      decompressMBs = bytes / 1e6 / (dNs / 1e9),
      randomAccessMBs = nQueries * 8.0 / 1e6 / (raNs / 1e9),
    )
  }

  /** Sanity: the decompressed payloads must equal the input payloads. */
  def verifyLossless(adapter: Adapter, ds: Dataset): Boolean =
    adapter.build(ds).decompressAll().sameElements(adapter.payload(ds))

  // -------------------------------------------------------------- Table II

  final case class LossyRow(dataset: String, eps: Long, epsPct: Double,
                            aaPct: Double, plaPct: Double, neatsPct: Double,
                            aaMape: Double, plaMape: Double, neatsMape: Double,
                            aaCompressMBs: Double, plaCompressMBs: Double,
                            neatsCompressMBs: Double)

  /** The paper's Table II eps selection: "the smallest eps such that NeaTS-L
    * achieves better compression than our lossless compressor NeaTS"
    * (§IV-B), searched over the power-of-two grid. Our analogues have a
    * different noise-to-range profile than the originals, so re-running the
    * paper's procedure (rather than copying its eps%) keeps the experiment
    * meaningful on our data. Returns that eps and NeaTS-L's size in bits at it.
    */
  def epsFor(ds: Dataset): (Long, Long) = {
    val losslessBits = NeaTS.compress(ds.longs).sizeInBits
    val sized = NeaTS.epsGrid(ds.longs).filter(_ > 0).to(LazyList).map { eps =>
      eps -> NeaTS.lossyPieces(ds.longs, eps).map(p => Partitioner.lossyBits(p.kind)).sum
    }
    sized.find(_._2 < losslessBits).getOrElse(sized.last)
  }

  def measureLossy(ds: Dataset): LossyRow = {
    val (eps, neatsBits) = epsFor(ds)
    val origBits = ds.n.toLong * 64
    val shift = NeaTS.shiftFor(ds.longs, eps)

    val (plaFits, plaNs) = bestOf(3)(PLA.partition(ds.longs, eps))
    val (aaFrags, aaNs) = bestOf(3)(AdaptiveApprox.partition(ds.longs, shift, eps))
    val (_, neatsNs) = bestOf(3)(NeaTS.lossyPieces(ds.longs, eps))

    val plaBits = PLA.sizeBits(plaFits)
    val aaBits = AdaptiveApprox.sizeBits(aaFrags)

    def mape(approx: Array[Double]): Double = {
      var acc = 0.0
      var cnt = 0
      var i = 0
      while (i < ds.n) {
        val actual = ds.longs(i).toDouble
        if (actual != 0.0) { acc += math.abs((approx(i) - actual) / actual); cnt += 1 }
        i += 1
      }
      100.0 * acc / math.max(1, cnt)
    }
    // PLA's and AA's fragments tile [0, n) in order, so one walk lists their approximations
    val plaApprox = plaFits.flatMap(f => (f.start until f.end).map(f.eval)).toArray
    val aaApprox = aaFrags.flatMap(f => (f.start until f.end).map(f.eval(_) - shift)).toArray
    val neatsApprox = NeaTS.compressLossy(ds.longs, eps).decompressAll().map(_.toDouble)
    val bytes = ds.n.toDouble * 8
    LossyRow(
      ds.name, eps, 100.0 * eps / math.max(1L, ds.valueRange),
      aaPct = aaBits * 100.0 / origBits,
      plaPct = plaBits * 100.0 / origBits,
      neatsPct = neatsBits * 100.0 / origBits,
      aaMape = mape(aaApprox), plaMape = mape(plaApprox), neatsMape = mape(neatsApprox),
      aaCompressMBs = bytes / 1e6 / (aaNs / 1e9),
      plaCompressMBs = bytes / 1e6 / (plaNs / 1e9),
      neatsCompressMBs = bytes / 1e6 / (neatsNs / 1e9),
    )
  }

  // ---------------------------------------------------------- range queries

  final case class RangeRow(codec: String, rangeSize: Int, queriesPerSec: Double)

  /** Figure-4-style range throughput for the random-access leaders. */
  def measureRange(ds: Dataset, rangeSizes: Seq[Int], queries: Int = 500): Seq[RangeRow] = {
    val contenders: Seq[(String, CompressedSeq)] = Seq("NeaTS", "DAC", "ALP", "Lz4").map { name =>
      name -> losslessAdapters.find(_.name == name).get.build(ds)
    }
    val rng = new java.util.Random(31)
    // Warm every contender's decode path before the first measurement (the
    // smallest range size is measured first and would otherwise pay JIT).
    contenders.foreach { case (_, c) =>
      var w = 0
      while (w < 300) {
        c.range(rng.nextInt(math.max(1, ds.n - 64)), 64)
        w += 1
      }
    }
    for {
      size <- rangeSizes
      (name, c) <- contenders
    } yield {
      val starts = Array.fill(queries)(rng.nextInt(math.max(1, ds.n - size)))
      var sink = 0L
      val (_, ns) = bestOf(3)(starts.foreach(s => sink ^= c.range(s, size)(size - 1)))
      if (sink == 42L) println("")
      RangeRow(name, size, queries.toDouble / (ns / 1e9))
    }
  }
}
