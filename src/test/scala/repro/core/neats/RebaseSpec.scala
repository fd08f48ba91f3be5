package repro.core.neats

import java.util.Random
import org.scalacheck.{Gen, Prop}
import repro.{FixedSeed, SparkSpec}
import repro.core.approx.FunctionKind
import repro.data.TimeSeries

/** Every series is rebased on its minimum before fitting (`NeaTS.shiftFor`),
  * so compression must not depend on where a series sits: lifted by any
  * constant, it gives the same fragments and only the stored shift differs.
  * Also the inputs far from zero on which fitting the raw values lost
  * precision and `build` threw.
  */
class RebaseSpec extends SparkSpec {
  import java.lang.Double.doubleToRawLongBits

  /** A random walk, constant runs, or a window of a dataset analogue. */
  private val series: Gen[Array[Long]] = for {
    n <- Gen.frequency(1 -> Gen.choose(1, 8), 4 -> Gen.choose(9, 1500))
    shape <- Gen.choose(0, 2)
    seed <- Gen.long
  } yield {
    val rng = new Random(seed)
    shape match {
      case 0 =>
        val step = Seq(2, 20, 2000)(rng.nextInt(3))
        var v = rng.nextInt(100000).toLong - 50000
        Array.fill(n) { v += rng.nextInt(step + 1) - step / 2; v }
      case 1 =>
        var v = 0L
        var left = 0
        Array.fill(n) {
          if (left == 0) { v = rng.nextInt(1000).toLong; left = 1 + rng.nextInt(500) }
          left -= 1
          v
        }
      case _ =>
        val name = TimeSeries.names(rng.nextInt(TimeSeries.names.length))
        val from = rng.nextInt(2000)
        TimeSeries.dataset(name, from + n).longs.drop(from)
    }
  }

  /** Constants from -2^62 to 2^62, with the offset benchmark's 2^24 to 2^30
    * and small ones drawn more often.
    */
  private val lift: Gen[Long] = Gen.frequency(
    3 -> Gen.choose(-(1L << 62), 1L << 62),
    2 -> Gen.choose(1L << 24, 1L << 30),
    1 -> Gen.choose(-1000L, 1000L))

  /** Each fragment's start, kind, correction width, correction offset and
    * parameters as raw bits. The eps grid depends only on max - min and
    * gives each eps its own width, so equal widths mean equal eps.
    */
  private def fragments(c: NeaTSCompressed): Vector[(Long, Int, Long, Long, Seq[Long])] = {
    val used = new Array[Int](c.p.length)
    Vector.tabulate(c.numFragments) { f =>
      val kind = FunctionKind.byId(c.k(f))
      val base = used(kind.id)
      used(kind.id) += kind.nParams
      val params = (base until base + kind.nParams).map(i => doubleToRawLongBits(c.p(kind.id)(i)))
      (c.s(f), kind.id, c.b(f), c.o(f), params)
    }
  }

  test("compression is invariant under lifting the series by a constant") {
    val cases = for { ys <- series; c <- lift } yield (ys, c)
    val prop = Prop.forAllNoShrink(cases) { case (ys, c) =>
      val lifted = ys.map(_ + c)
      val want = NeaTS.compress(ys)
      val got = NeaTS.compress(lifted)
      val same = fragments(got) == fragments(want) && PinSpec.words(got.c) == PinSpec.words(want.c) &&
        got.shift == want.shift - c
      Prop(same && got.decompressAll().sameElements(lifted)) :|
        s"n=${ys.length} c=$c: ${got.numFragments} vs ${want.numFragments} fragments"
    }
    FixedSeed.check(prop, 20251019L, cases = 100)
  }

  private def roundTrips(ys: Array[Long]): Unit = {
    assert(NeaTS.compress(ys).decompressAll().sameElements(ys), "NeaTS")
    assert(NeaTS.compressLinearOnly(ys).decompressAll().sameElements(ys), "LeaTS")
    assert(NeaTS.compressSelected(ys).decompressAll().sameElements(ys), "SNeaTS")
    val eps = 15L
    val lossy = NeaTS.compressLossy(ys, eps).decompressAll()
    val maxErr = lossy.indices.map(i => math.abs(lossy(i) - ys(i))).max
    assert(maxErr <= eps, s"NeaTS-L: max error $maxErr > eps $eps")
  }

  test("a smooth ramp around 2^54 round-trips") {
    roundTrips(Array.tabulate(3000)(i => (1L << 54) + 977L * i + math.round(5000 * math.sin(i / 300.0))))
  }

  test("noise around 2^60 round-trips") {
    val rng = new Random(54)
    roundTrips(Array.fill(3000)((1L << 60) + rng.nextInt(1 << 20)))
  }

  test("a ramp at Long.MinValue + 10 round-trips") {
    roundTrips(Array.tabulate(3000)(i => Long.MinValue + 10 + 7L * i))
  }
}
