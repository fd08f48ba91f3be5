package repro.core.neats

import java.util.Random
import org.scalacheck.{Gen, Prop}
import repro.{FixedSeed, SparkSpec}
import repro.core.approx._
import repro.data.TimeSeries

class PartitionerSpec extends SparkSpec {

  private def randomWalk(n: Int, seed: Long): Array[Long] = {
    val rng = new Random(seed)
    var v = 10000L
    Array.fill(n) { v += rng.nextInt(21) - 10; v }
  }

  private def checkPartition(ys: Array[Long], shift: Long, pieces: Vector[Piece]): Unit = {
    assert(pieces.nonEmpty)
    assert(pieces.head.start === 0)
    assert(pieces.last.end === ys.length)
    pieces.sliding(2).foreach {
      case Vector(a, b) => assert(a.end === b.start, "pieces must be contiguous")
      case _ =>
    }
  }

  test("lossless partition covers the series contiguously") {
    val ys = randomWalk(1500, 17)
    val eps = Seq(0L, 2L, 8L, 32L)
    val shift = NeaTS.shiftFor(ys, eps.max)
    val pieces = Partitioner.lossless(ys, shift, FunctionKind.all, eps)
    checkPartition(ys, shift, pieces)
  }

  test("optimal partition cost is never worse than greedy single-kind cost") {
    val ys = randomWalk(1200, 18)
    val epsilons = Seq(0L, 2L, 8L, 32L)
    val shift = NeaTS.shiftFor(ys, epsilons.max)
    val pieces = Partitioner.lossless(ys, shift, FunctionKind.all, epsilons)
    val optCost = pieces.map(p => p.length.toLong * p.corrBits + Partitioner.kappa(p.kind)).sum
    // greedy linear at each single eps is a valid solution of the same problem
    epsilons.foreach { eps =>
      val greedy = PiecewiseApprox.partition(ys, shift, LinearKind, eps)
      val cost = greedy.map(f => f.length.toLong * Partitioner.corrBits(eps) +
        Partitioner.kappa(LinearKind)).sum
      assert(optCost <= cost, s"optimal $optCost > greedy(linear, eps=$eps) $cost")
    }
  }

  test("lossy partition minimises fragment storage and respects the bound") {
    val ys = randomWalk(1000, 19)
    val eps = 16L
    val shift = NeaTS.shiftFor(ys, eps)
    val pieces = Partitioner.run(ys, shift, FunctionKind.all.map(_ -> eps), lossy = true)
    checkPartition(ys, shift, pieces)
    assert(pieces.forall(_.corrBits === 0))
    // lossy optimum (by lossyBits) must not exceed greedy linear fragment storage
    val optCost = pieces.map(p => Partitioner.lossyBits(p.kind)).sum
    val greedy = PiecewiseApprox.partition(ys, shift, LinearKind, eps)
    assert(optCost <= greedy.length * Partitioner.lossyBits(LinearKind))
  }

  test("corrBits matches ceil(log2(2eps+1))") {
    assert(Partitioner.corrBits(0) === 0)
    assert(Partitioner.corrBits(1) === 2)
    assert(Partitioner.corrBits(2) === 3)
    assert(Partitioner.corrBits(3) === 3)
    assert(Partitioner.corrBits(4) === 4)
    assert(Partitioner.corrBits(7) === 4)
    assert(Partitioner.corrBits(8) === 5)
    // signed two's complement must cover [-eps, eps]
    for (eps <- 1L to 200L) {
      val b = Partitioner.corrBits(eps)
      assert((1L << (b - 1)) - 1 >= eps || (1L << (b - 1)) >= eps, s"eps=$eps b=$b")
      assert(-(1L << (b - 1)) <= -eps)
      assert((1L << (b - 1)) - 1 >= eps, s"upper bound fails for eps=$eps b=$b")
    }
  }

  test("partition on a series with mixed regimes uses more than one kind") {
    // exponential growth then linear drift: the optimal partition should not
    // pay the linear-fragment price on the exponential half
    val ys = Array.tabulate(400)(i => math.round(10.0 * math.exp(0.02 * (i + 1)))) ++
      Array.tabulate(400)(i => 30000L + 5 * i)
    val eps = Seq(2L)
    val shift = NeaTS.shiftFor(ys, 2L)
    val all = Partitioner.lossless(ys, shift, FunctionKind.all, eps)
    val linOnly = Partitioner.lossless(ys, shift, Seq(LinearKind), eps)
    def cost(ps: Vector[Piece]) = ps.map(p => p.length.toLong * p.corrBits + Partitioner.kappa(p.kind)).sum
    assert(cost(all) <= cost(linOnly))
    assert(all.length <= linOnly.length)
  }

  test("single point and tiny series partition fine") {
    for (n <- Seq(1, 2, 3, 5)) {
      val ys = Array.tabulate(n)(i => (i * i).toLong)
      val pieces = Partitioner.lossless(ys, 10, FunctionKind.all, Seq(0L, 2L))
      checkPartition(ys, 10, pieces)
    }
  }
}

class NeaTSSpec extends SparkSpec {

  private def testDatasets = TimeSeries.names.map(n => TimeSeries.dataset(n, 1500))

  for (ds <- TimeSeries.names) {
    test(s"lossless roundtrip on dataset analogue $ds") {
      val data = TimeSeries.dataset(ds, 1200)
      val c = NeaTS.compress(data.longs)
      assert(c.decompressAll().toSeq === data.longs.toSeq)
    }
  }

  test("random access agrees with full decompression") {
    val data = TimeSeries.dataset("IT", 2000)
    val c = NeaTS.compress(data.longs)
    val all = c.decompressAll()
    val rng = new Random(20)
    (0 until 500).foreach { _ =>
      val i = rng.nextInt(data.n)
      assert(c(i) === all(i), s"random access at $i")
    }
    // and exhaustively on a prefix
    (0 until 300).foreach(i => assert(c(i) === all(i)))
  }

  test("random access and full decoding allocate nothing beyond the output") {
    val mx = java.lang.management.ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    val data = TimeSeries.dataset("ECG", 100000)
    val built = NeaTS.compress(data.longs)
    val rng = new Random(21)
    val idx = Array.fill(1 << 16)(rng.nextInt(data.n))
    var sink = 0L
    // the reloaded copy holds the read path's arrays from the blob's words
    for ((what, c) <- Seq("built" -> built, "reloaded" -> NeaTSCompressed.fromBytes(built.toBytes))) {
      def lookupBytes(calls: Int): Long = {
        val before = mx.getCurrentThreadAllocatedBytes
        var i = 0
        while (i < calls) { sink ^= c(idx(i & (idx.length - 1))); i += 1 }
        mx.getCurrentThreadAllocatedBytes - before
      }
      lookupBytes(2000000) // warm-up
      val perCall = lookupBytes(1000000) / 1e6
      assert(perCall < 1.0, s"$what: $perCall B per apply")
      c.decompressAll()
      val before = mx.getCurrentThreadAllocatedBytes
      sink ^= c.decompressAll()(0)
      val decodeBytes = mx.getCurrentThreadAllocatedBytes - before
      assert(decodeBytes <= 16L + 8L * data.n, s"$what: $decodeBytes B for a ${8L * data.n} B output")
    }
  }

  test("range scans agree with full decompression") {
    val data = TimeSeries.dataset("ECG", 2000)
    val c = NeaTS.compress(data.longs)
    val all = c.decompressAll()
    val rng = new Random(21)
    (0 until 100).foreach { _ =>
      val from = rng.nextInt(data.n - 1)
      val len = rng.nextInt(data.n - from)
      assert(c.range(from, len).toSeq === all.slice(from, from + len).toSeq)
    }
    assert(c.range(0, 0).isEmpty)
    assert(c.range(0, data.n).toSeq === all.toSeq)
  }

  test("apply and range reject every index and range outside the series") {
    val c = NeaTS.compress(TimeSeries.dataset("ECG", 2000).longs)
    val n = c.n
    val calls = Seq[(String, () => Any)](
      "apply(-1)" -> (() => c(-1)),
      "apply(n)" -> (() => c(n)),
      "range(-1, 1)" -> (() => c.range(-1, 1)),
      "range(0, n + 1)" -> (() => c.range(0, n + 1)),
      "range(1, Int.MaxValue)" -> (() => c.range(1, Int.MaxValue)),
    )
    for ((what, call) <- calls) withClue(what)(intercept[IllegalArgumentException](call()))
  }

  test("apply and range agree at every index of every analogue, plain and lifted by 2^30") {
    for (ds <- TimeSeries.names; lift <- Seq(0L, 1L << 30)) {
      val ys = TimeSeries.dataset(ds, 1500).longs.map(_ + lift)
      val c = NeaTS.compress(ys)
      assert(c.decompressAll().toSeq === ys.toSeq, s"$ds + $lift")
      ys.indices.foreach { i =>
        val len = math.min(ys.length - i, 37)
        assert(c(i) === ys(i), s"$ds + $lift: apply($i)")
        assert(c.range(i, len).toSeq === ys.slice(i, i + len).toSeq, s"$ds + $lift: range($i, $len)")
      }
    }
  }

  test("decode returns the shared rule plus the stored correction for hand-made pieces of every kind") {
    // Parameters the fitter does not emit: negative slopes, exponentials near
    // 2^50, quadratics with a large constant term; shifts that wrap mod 2^64.
    def params(kind: FunctionKind): Gen[(Double, Double, Double)] = kind match {
      case LinearKind | RadicalKind => Gen.zip(Gen.choose(-1e6, 1e6), Gen.choose(-1e15, 1e15), Gen.const(0.0))
      case ExponentialKind => Gen.zip(Gen.choose(-1e-3, 1e-3), Gen.choose(34.0, 34.65), Gen.const(0.0))
      case QuadraticKind => Gen.zip(Gen.choose(-1e3, 1e3), Gen.choose(-1e6, 1e6), Gen.choose(-1e15, 1e15))
    }
    val piece = for {
      kind <- Gen.oneOf(FunctionKind.all)
      mbp <- params(kind)
      len <- Gen.choose(1, 60)
      eps <- Gen.oneOf(0L, 1L, 3L, 255L, (1L << 40) - 1)
    } yield (kind, mbp, len, eps)
    val cases = for {
      specs <- Gen.choose(1, 6).flatMap(Gen.listOfN(_, piece))
      shift <- Gen.oneOf(Gen.choose(Long.MinValue, Long.MaxValue), Gen.choose(-1000L, 1000L))
      seed <- Gen.long
    } yield {
      val starts = specs.scanLeft(0)(_ + _._3)
      val pieces = specs.zip(starts).toVector.map { case ((kind, (m, b, p3), len, eps), start) =>
        Piece(start, start + len, kind, m, b, p3, eps, Partitioner.corrBits(eps))
      }
      val rng = new Random(seed)
      val ys = new Array[Long](starts.last)
      for (p <- pieces; i <- p.start until p.end) ys(i) = p.approx(i) - shift + rng.nextLong(-p.eps, p.eps + 1)
      (ys, shift, pieces)
    }
    val prop = Prop.forAllNoShrink(cases) { case (ys, shift, pieces) =>
      val c = NeaTSCompressed.build(ys, shift, pieces)
      val bad = ys.indices.find { i =>
        val len = math.min(ys.length - i, 37)
        c(i) != ys(i) || !c.range(i, len).sameElements(ys.slice(i, i + len))
      }
      Prop(c.decompressAll().sameElements(ys) && bad.isEmpty) :|
        s"${pieces.length} pieces, n=${ys.length}, shift=$shift, first bad index ${bad.getOrElse(-1)}"
    }
    FixedSeed.check(prop, 20261019L, cases = 200)
  }

  test("serialization roundtrips") {
    val data = TimeSeries.dataset("US", 1500)
    val c = NeaTS.compress(data.longs)
    val c2 = NeaTSCompressed.fromBytes(c.toBytes)
    assert(c2.decompressAll().toSeq === data.longs.toSeq)
    assert(c2.n === c.n)
    val rng = new Random(22)
    (0 until 200).foreach { _ =>
      val i = rng.nextInt(data.n)
      assert(c2(i) === c(i))
    }
  }

  test("LeaTS (linear only) roundtrips") {
    val data = TimeSeries.dataset("WD", 1500)
    val c = NeaTS.compressLinearOnly(data.longs)
    assert(c.decompressAll().toSeq === data.longs.toSeq)
  }

  test("SNeaTS (model selection) roundtrips") {
    val data = TimeSeries.dataset("AP", 2000)
    val c = NeaTS.compressSelected(data.longs)
    assert(c.decompressAll().toSeq === data.longs.toSeq)
  }

  test("SNeaTS fits only the (kind, eps) pairs it selects") {
    val failures = TimeSeries.benchmarks().flatMap { ds =>
      val grid = NeaTS.epsGrid(ds.longs)
      val pairs = NeaTS.selectedPairs(ds.longs, NeaTS.shiftFor(ds.longs, grid.max), grid)
      val selected = pairs.map { case (kind, eps) => (kind.id, Partitioner.corrBits(eps).toLong) }
      assert(selected.length <= 6)
      val c = NeaTS.compressSelected(ds.longs)
      val unselected = (0 until c.numFragments).map(f => (c.k(f), c.b(f))).distinct.filterNot(selected.contains)
      if (unselected.isEmpty) None else Some(s"${ds.name}: (kind id, width) $unselected used, $selected selected")
    }
    assert(failures.isEmpty, failures.mkString("; "))
  }

  test("compression actually compresses trend-heavy data") {
    val data = TimeSeries.dataset("US", 4000)
    val c = NeaTS.compress(data.longs)
    assert(c.sizeInBits < data.n * 64L, s"${c.sizeInBits} vs ${data.n * 64L}")
  }

  test("lossy: max error bounded by eps and smaller than lossless") {
    val data = TimeSeries.dataset("IT", 2000)
    // eps comfortably above the noise floor so the lossy form clearly wins
    val eps = math.max(1L, data.valueRange / 20)
    val lossy = NeaTS.compressLossy(data.longs, eps)
    val dec = lossy.decompressAll()
    val maxErr = dec.zip(data.longs).map { case (a, b) => math.abs(a - b) }.max
    assert(maxErr <= eps, s"maxErr $maxErr > eps $eps")
    val lossless = NeaTS.compress(data.longs)
    assert(lossy.sizeInBits < lossless.sizeInBits)
  }

  for (ds <- TimeSeries.names) {
    test(s"lossy pieces respect the bound on dataset analogue $ds") {
      val data = TimeSeries.dataset(ds, 1000)
      val eps = math.max(1L, data.valueRange / 200)
      val shift = NeaTS.shiftFor(data.longs, eps)
      val pieces = NeaTS.lossyPieces(data.longs, shift, eps)
      pieces.foreach { p =>
        (p.start until p.end).foreach { i =>
          assert(math.abs(p.approx(i) - (data.longs(i) + shift)) <= eps, s"piece at $i")
        }
      }
    }
  }

  for (ds <- TimeSeries.names) {
    test(s"LeaTS (linear-only) roundtrips on dataset analogue $ds") {
      val data = TimeSeries.dataset(ds, 800)
      val c = NeaTS.compressLinearOnly(data.longs)
      assert(c.decompressAll().toSeq === data.longs.toSeq)
    }
  }

  test("negative values are handled via the global shift") {
    val rng = new Random(23)
    var v = -5000L
    val ys = Array.fill(1000) { v += rng.nextInt(21) - 10; v }
    assert(ys.min < 0)
    val c = NeaTS.compress(ys)
    assert(c.decompressAll().toSeq === ys.toSeq)
  }

  test("constant series compresses to almost nothing") {
    val ys = Array.fill(5000)(42L)
    val c = NeaTS.compress(ys)
    assert(c.decompressAll().toSeq === ys.toSeq)
    assert(c.numFragments === 1)
    assert(c.sizeInBits < 5000L, s"constant series should be tiny, got ${c.sizeInBits} bits")
  }

  test("epsGrid covers {0} union width-maximal eps up to the value range") {
    val ys = Array[Long](0, 100, 1000) // delta = 1001 -> ceil(log2) = 10
    val grid = NeaTS.epsGrid(ys)
    assert(grid.head === 0L)
    assert(grid.tail === (1 to 10).map(k => (1L << k) - 1))
    // each eps is the largest one for its correction width
    grid.tail.foreach { e =>
      assert(Partitioner.corrBits(e + 1) === Partitioner.corrBits(e) + 1)
    }
  }

  test("shiftFor keeps log-domain kinds in-domain") {
    val ys = Array[Long](-10, 0, 5)
    val shift = NeaTS.shiftFor(ys, 8)
    assert(ys.min + shift === 8 + 1)
    val ys2 = Array[Long](100, 200)
    assert(ys2.min + NeaTS.shiftFor(ys2, 8) === 8 + 1)
  }

  test("repair splits pieces with out-of-bound corrections") {
    val ys = Array.tabulate(100)(i => (i * 3).toLong)
    // a deliberately wrong piece: slope way off
    val bad = Vector(Piece(0, 100, LinearKind, 10.0, 0.0, 0.0, 2, Partitioner.corrBits(2)))
    val repaired = NeaTS.repair(ys, 0, bad, lossy = false)
    assert(repaired.head.start === 0)
    assert(repaired.last.end === 100)
    repaired.sliding(2).foreach {
      case Vector(a, b) => assert(a.end === b.start)
      case _ =>
    }
    repaired.foreach { p =>
      (p.start until p.end).foreach { i =>
        assert(math.abs(ys(i) - p.approx(i)) <= p.eps)
      }
    }
  }

  test("repair refits until each piece's end and build rejects pieces that do not tile the series") {
    // At eps = 2 no fit spans three points alternating 0 and 1000, so every
    // refit of a bad piece ends long before the piece does.
    val ys = Array.tabulate(100)(i => if (i % 2 == 0) 0L else 1000L)
    val shift = NeaTS.shiftFor(ys, 2)
    for (kind <- FunctionKind.all) withClue(kind) {
      val bad = Vector(Piece(0, 60, kind, 0.0, 0.0, 0.0, 2, Partitioner.corrBits(2)),
                       Piece(60, 100, kind, 0.0, 0.0, 0.0, 2, Partitioner.corrBits(2)))
      val repaired = NeaTS.repair(ys, shift, bad, lossy = false)
      assert(repaired.map(_.start) === 0 +: repaired.init.map(_.end))
      assert(repaired.last.end === 100)
      val c = NeaTSCompressed.build(ys, shift, repaired)
      assert(c.decompressAll().toSeq === ys.toSeq)
      assert(ys.indices.map(c(_)) === ys.toSeq)
      intercept[IllegalArgumentException](NeaTSCompressed.build(ys, shift, repaired.filterNot(_.start == 60)))
      intercept[IllegalArgumentException](NeaTSCompressed.build(ys, shift, repaired.init))
    }
  }

  test("wavelet-tree parameter lookup is consistent across kinds") {
    // build data that forces multiple kinds, then decode must still roundtrip
    val ys = Array.tabulate(300)(i => math.round(10.0 * math.exp(0.02 * (i + 1)))) ++
      Array.tabulate(300)(i => 5000L + 7 * i) ++
      Array.tabulate(300)(i => math.round(200.0 * math.sqrt(i + 1.0)))
    val c = NeaTS.compress(ys)
    assert(c.decompressAll().toSeq === ys.toSeq)
  }
}
