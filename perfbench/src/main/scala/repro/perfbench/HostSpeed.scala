package repro.perfbench

import java.util.SplittableRandom

/** A fixed reference kernel that tracks how fast the host runs the
  * program's kind of code at a given moment.
  *
  * The shared host this benchmark was written on runs the program's code up
  * to twice as slowly while other tenants load its cores, for stretches of
  * a second to many minutes, so that whole runs can fall in the slow state.
  * Every timing sample is therefore followed by a call of this kernel and
  * scaled by [[NominalNs]] over the mean kernel time just before and just
  * after it ([[Scaler]]). The kernel is the benchmark's own code and never
  * calls the program, so a change to the program moves a scaled figure as
  * it moves the raw one in the same host state; the host's state cancels
  * to the extent that the program's code slows like the kernel.
  *
  * It mixes the kinds of work the program does: floating-point arithmetic
  * (fitting), bit extraction from a packed array (the succinct structures)
  * and probes of an open-addressing table (branchy integer code). It
  * allocates nothing, and a first untimed pass loads its 160 KiB of tables
  * into the caches, so that what ran before it does not change its time.
  */
object HostSpeed {

  /** A constant near the kernel's time on the 4-vCPU Xeon (2.0 GHz) host
    * this was written on (86–133 µs over a day of runs), in ns. It only sets
    * the scale of the scaled figures.
    */
  val NominalNs = 100_000.0

  private val doubles = Array.tabulate(256)(i => 1.0 + i * 0.37)
  private val words = { val r = new SplittableRandom(6); Array.fill(1 << 12)(r.nextLong()) }
  private val table = { val r = new SplittableRandom(7); Array.fill(1 << 14)(r.nextLong() & 0xFFFFFFFFL) }
  @volatile private var sink = 0L

  /** One call of the kernel: an untimed pass, then two timed ones; returns
    * their time in ns.
    */
  def kernelNs(): Long = {
    sink += pass()
    val t0 = System.nanoTime()
    sink += pass() + pass()
    System.nanoTime() - t0
  }

  private def pass(): Long = {
    var f = 0.0
    var k = 0
    while (k < 8) {
      var i = 0
      while (i < doubles.length) { f += math.sqrt(doubles(i)) * math.log(doubles(i) + k); i += 1 }
      k += 1
    }
    var x = 12345L
    var s = 0L
    val mask = words.length - 1
    var i = 0
    while (i < 4_000) {
      x = x * 6364136223846793005L + 1442695040888963407L
      val bit = (x >>> 24) & ((words.length.toLong << 6) - 1)
      val w = (bit >>> 6).toInt
      val o = (bit & 63).toInt
      val v = if (o <= 44) (words(w) >>> o) & 0xFFFFF
              else ((words(w) >>> o) | (words((w + 1) & mask) << (64 - o))) & 0xFFFFF
      s += java.lang.Long.bitCount(v) + v
      i += 1
    }
    val tmask = table.length - 1
    i = 0
    while (i < 4_000) {
      x = x * 6364136223846793005L + 1442695040888963407L
      val key = (x >>> 32) & 0xFFFFFFFFL
      var slot = (java.lang.Long.hashCode(key * 0x9E3779B97F4A7C15L) & tmask)
      var probes = 0
      while (probes < 4 && table(slot) != key) { slot = (slot + 1) & tmask; probes += 1 }
      s += probes + slot
      i += 1
    }
    s + f.toLong
  }

  /** Scales consecutive timing samples. Each sample is followed by one
    * kernel call and scaled by the mean kernel time before and after it.
    */
  final class Scaler {
    private var last = kernelNs()

    /** Runs `body`; returns its result and the factor that scales its time
      * to the kernel's nominal speed.
      */
    def apply[T](body: => T): (T, Double) = {
      val out = body
      val now = kernelNs()
      val factor = NominalNs * 2 / (last + now)
      last = now
      (out, factor)
    }
  }
}
