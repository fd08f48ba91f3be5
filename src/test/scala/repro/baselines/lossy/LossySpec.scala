package repro.baselines.lossy

import repro.SparkSpec
import repro.core.neats.NeaTS
import repro.data.TimeSeries

class LossySpec extends SparkSpec {

  for (name <- TimeSeries.names) {
    test(s"PLA respects the error bound on dataset analogue $name") {
      val ds = TimeSeries.dataset(name, 800)
      val eps = math.max(1L, ds.valueRange / 100)
      val fits = PLA.partition(ds.longs, eps)
      assert(fits.head.start === 0)
      assert(fits.last.end === ds.n)
      fits.foreach { f =>
        (f.start until f.end).foreach { i =>
          assert(math.abs(f.eval(i) - ds.longs(i).toDouble) <= eps + 1e-6, s"at $i")
        }
      }
    }
  }

  for (name <- TimeSeries.names) {
    test(s"AA respects the error bound and anchors exactly on $name") {
      val ds = TimeSeries.dataset(name, 800)
      val eps = math.max(1L, ds.valueRange / 100)
      val shift = NeaTS.shiftFor(ds.longs, eps)
      val frags = AdaptiveApprox.partition(ds.longs, shift, eps)
      assert(frags.head.start === 0)
      assert(frags.last.end === ds.n)
      frags.foreach { f =>
        assert(f.eval(f.start) === (ds.longs(f.start) + shift).toDouble, "anchor must be exact")
        (f.start until f.end).foreach { i =>
          assert(math.abs(f.eval(i) - (ds.longs(i) + shift).toDouble) <= eps + 1e-6, s"at $i")
        }
      }
    }
  }

  test("AA fragments are contiguous") {
    val ds = TimeSeries.dataset("WD", 1000)
    val eps = math.max(1L, ds.valueRange / 50)
    val frags = AdaptiveApprox.partition(ds.longs, 0, eps)
    frags.sliding(2).foreach {
      case Seq(a, b) => assert(a.end === b.start)
      case _ =>
    }
  }

  test("NeaTS-L lossy size <= PLA size under the same bound (Table II claim)") {
    // The optimal multi-kind partitioner can always fall back to linear
    // fragments, so with the same per-fragment accounting it cannot lose to
    // greedy PLA by more than the 3-param quadratic surcharge; on nonlinear
    // data it should win outright.
    for (name <- Seq("IT", "ECG", "DU", "BM")) {
      val ds = TimeSeries.dataset(name, 1500)
      val eps = math.max(1L, ds.valueRange / 100)
      val pla = PLA.sizeBits(PLA.partition(ds.longs, eps))
      val pieces = NeaTS.lossyPieces(ds.longs, NeaTS.shiftFor(ds.longs, eps), eps)
      val neats = pieces.map(p => 64L * p.kind.nParams + 32L).sum
      assert(neats <= pla * 1.05, s"$name: NeaTS-L $neats > PLA $pla")
    }
  }

  test("AA produces more fragments than PLA on most data (the paper's finding)") {
    var aaWorse = 0
    var total = 0
    for (name <- Seq("IT", "US", "ECG", "WD", "AP", "DU")) {
      val ds = TimeSeries.dataset(name, 1200)
      val eps = math.max(1L, ds.valueRange / 100)
      val shift = NeaTS.shiftFor(ds.longs, eps)
      val pla = PLA.partition(ds.longs, eps).length
      val aa = AdaptiveApprox.partition(ds.longs, shift, eps).length
      total += 1
      if (aa >= pla) aaWorse += 1
    }
    assert(aaWorse >= total / 2, s"AA better than PLA on most datasets ($aaWorse/$total worse)")
  }

  test("single-point series") {
    val ys = Array(5L)
    assert(PLA.partition(ys, 1).length === 1)
    assert(AdaptiveApprox.partition(ys, 0, 1).length === 1)
  }
}
