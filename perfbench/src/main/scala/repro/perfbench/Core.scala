package repro.perfbench

import java.util.SplittableRandom
import repro.core.neats.{NeaTS, NeaTSCompressed}

/** End-to-end compression and read phases over a workload's series. They
  * call only the program's stable entry points: `NeaTS.compress` and
  * `NeaTSCompressed.{apply, range, decompressAll, toBytes, fromBytes,
  * sizeInBits, numFragments}`. Every output is checked against the raw
  * arrays; a wrong value or an exception counts as a failed operation.
  */
final class Core(inputs: Inputs, report: Report, rng: SplittableRandom) {
  private val raw = inputs.series
  private val bytes = inputs.points * 8.0

  /** One compressed form per series, or null where compression failed. */
  val compressed = new Array[NeaTSCompressed](raw.length)
  var blobs: Array[Array[Byte]] = Array.empty

  private def ok: Vector[Int] = raw.indices.filter(compressed(_) != null).toVector

  /** Compresses series i; returns the call's MB/s, or None if it failed.
    * The first successful result is the one the read phases use.
    */
  def compressOne(i: Int, trace: Trace): Option[Double] = {
    val ys = raw(i)
    var c: NeaTSCompressed = null
    val t0 = System.nanoTime()
    try {
      c = if (trace == null) NeaTS.compress(ys) else trace.span("compress", i)(NeaTS.compress(ys))
    } catch { case _: Exception => () }
    val ns = System.nanoTime() - t0
    if (report.check(c != null && java.util.Arrays.equals(c.decompressAll(), ys))) {
      if (compressed(i) == null) compressed(i) = c
      Some(ys.length * 8.0 / 1e6 / (ns / 1e9))
    } else None
  }

  /** Serializes every compressed series; call once all are compressed. */
  def serialize(): Unit = blobs = ok.map(i => compressed(i).toBytes).toArray

  /** Compresses every series once; returns the per-call MB/s. */
  def compress(trace: Trace): Array[Double] = {
    val rates = raw.indices.flatMap(compressOne(_, trace)).toArray
    serialize()
    rates
  }

  /** Serialized bytes over raw bytes, in percent. */
  def sizePct: Double = blobs.map(_.length.toLong).sum * 100.0 / bytes

  /** In-memory bits over raw bits, in percent. */
  def memPct: Double = ok.map(compressed(_).sizeInBits).sum * 100.0 / (inputs.points * 64)

  /** Draws (series, offset) pairs uniformly over every start position that
    * leaves room for `len` values, across all compressed series.
    */
  final class Positions(len: Int) {
    private val ids = ok.filter(raw(_).length >= len).toArray
    private val cum = ids.map(i => (raw(i).length - len + 1).toLong).scanLeft(0L)(_ + _)
    def draw(): (Int, Int) = {
      val g = rng.nextLong(cum.last)
      var lo = 0
      var hi = ids.length - 1
      while (lo < hi) {
        val mid = (lo + hi + 1) >>> 1
        if (cum(mid) <= g) lo = mid else hi = mid - 1
      }
      (ids(lo), (g - cum(lo)).toInt)
    }
  }

  /** `calls` lookups `c(idx)`, idx uniform over every value of the
    * workload; returns the per-call ns.
    */
  def lookups(calls: Int, trace: Trace): Array[Double] = {
    val pos = new Positions(1)
    val block = 1024
    val sid = new Array[Int](block)
    val idx = new Array[Int](block)
    val got = new Array[Long](block)
    val thrown = new Array[Boolean](block)
    val ns = new Array[Double](calls)
    var done = 0
    while (done < calls) {
      val n = math.min(block, calls - done)
      var j = 0
      while (j < n) { val (s, i) = pos.draw(); sid(j) = s; idx(j) = i; j += 1 }
      j = 0
      while (j < n) {
        val c = compressed(sid(j))
        val t0 = System.nanoTime()
        val id = if (trace == null) -1 else trace.begin("lookup", done + j)
        try { got(j) = c(idx(j)); thrown(j) = false } catch { case _: Exception => thrown(j) = true }
        if (id >= 0) trace.end(id)
        ns(done + j) = (System.nanoTime() - t0).toDouble
        j += 1
      }
      j = 0
      while (j < n) { report.check(!thrown(j) && got(j) == raw(sid(j))(idx(j))); j += 1 }
      done += n
    }
    ns
  }

  /** `calls` ranges `range(from, len)` with uniform from; returns the per-call ns. */
  def ranges(calls: Int, len: Int): Array[Double] = {
    val pos = new Positions(len)
    Array.fill(calls) {
      val (s, from) = pos.draw()
      val c = compressed(s)
      val t0 = System.nanoTime()
      val got = try c.range(from, len) catch { case _: Exception => null }
      val ns = (System.nanoTime() - t0).toDouble
      report.check(got != null && java.util.Arrays.equals(got, 0, len, raw(s), from, from + len))
      ns
    }
  }

  /** One pass of `decompressAll()` over every series; returns its MB/s. */
  def decompress(): Double = {
    val ids = ok
    val got = new Array[Array[Long]](raw.length)
    val t0 = System.nanoTime()
    ids.foreach(i => got(i) = try compressed(i).decompressAll() catch { case _: Exception => null })
    val ns = System.nanoTime() - t0
    ids.foreach(i => report.check(got(i) != null && java.util.Arrays.equals(got(i), raw(i))))
    ids.map(raw(_).length * 8.0).sum / 1e6 / (ns / 1e9)
  }

  /** One pass of `fromBytes` over every blob; returns blob MB/s. Each
    * reloaded series must decode to the raw values.
    */
  def load(): Double = {
    val ids = ok
    val got = new Array[NeaTSCompressed](blobs.length)
    val t0 = System.nanoTime()
    var b = 0
    while (b < blobs.length) {
      got(b) = try NeaTSCompressed.fromBytes(blobs(b)) catch { case _: Exception => null }
      b += 1
    }
    val ns = System.nanoTime() - t0
    ids.indices.foreach { b =>
      report.check(got(b) != null && java.util.Arrays.equals(got(b).decompressAll(), raw(ids(b))))
    }
    blobs.map(_.length.toDouble).sum / 1e6 / (ns / 1e9)
  }
}
