package repro.core.neats

import java.util.Random
import org.scalacheck.{Gen, Prop}
import repro.{FixedSeed, SparkSpec}
import repro.core.approx._

/** The pipelined, block-parallel chain fill of Algorithm 1 against the
  * sequential relaxation it replaced: both must give the same pieces,
  * parameters bit for bit, whatever the thread count or scheduling.
  */
class PartitionerParallelSpec extends SparkSpec {
  import PartitionerParallelSpec._

  private val block = Partitioner.BlockNodes

  private val lengths: Gen[Int] = Gen.frequency(
    1 -> Gen.const(1),
    3 -> Gen.choose(2, 300),
    2 -> Gen.oneOf(block - 1, block, block + 1),
    2 -> Gen.choose(2 * block, 3 * block + 1))

  /** A random walk, constant runs, a smooth curve with noise, or an
    * offset-like walk lifted by a baseline of 2^24 to 2^30.
    */
  private val series: Gen[Array[Long]] = for {
    n <- lengths
    shape <- Gen.choose(0, 3)
    seed <- Gen.long
  } yield {
    val rng = new Random(seed)
    shape match {
      case 0 =>
        val step = Seq(2, 20, 2000)(rng.nextInt(3))
        var v = rng.nextInt(100000).toLong
        Array.fill(n) { v += rng.nextInt(step + 1) - step / 2; v }
      case 1 =>
        var v = rng.nextInt(1000).toLong
        var left = 0
        Array.fill(n) {
          if (left == 0) { v = rng.nextInt(1000).toLong; left = 1 + rng.nextInt(500) }
          left -= 1
          v
        }
      case 2 =>
        val (amp, period) = (1 + rng.nextInt(5000), 50.0 + rng.nextInt(2000))
        Array.tabulate(n)(i => math.round(amp * math.sin(i / period) + 0.002 * i * i / period) + rng.nextInt(7))
      case _ =>
        val base = (1L << (24 + rng.nextInt(7))) - rng.nextInt(1 << 16)
        var v = 0L
        Array.fill(n) { v += rng.nextInt(41) - 20; base + v }
    }
  }

  /** All kinds (NeaTS), linear only (LeaTS), or a few (kind, eps) pairs
    * that always include a linear one (SNeaTS-style).
    */
  private def pairs(grid: Seq[Long]): Gen[(Seq[FunctionKind], Seq[Long])] = Gen.oneOf(
    Gen.const[(Seq[FunctionKind], Seq[Long])]((FunctionKind.all, grid)),
    Gen.const[(Seq[FunctionKind], Seq[Long])]((Seq(LinearKind), grid)),
    for {
      kinds <- Gen.someOf(FunctionKind.all.tail)
      eps <- Gen.atLeastOne(grid)
    } yield ((LinearKind +: kinds.toSeq).toSeq, eps.toSeq))

  private def check(prop: Prop): Unit = FixedSeed.check(prop, 20251018L, cases = 100)

  test("lossless partition equals the sequential relaxation, piece for piece") {
    check(Prop.forAllNoShrink(series.flatMap(ys => pairs(NeaTS.epsGrid(ys)).map(ys -> _))) {
      case (ys, (kinds, eps)) =>
        val shift = NeaTS.shiftFor(ys, eps.max)
        val got = Partitioner.lossless(ys, shift, kinds, eps)
        val want = sequential(ys, shift, kinds, eps, lossy = false)
        Prop(got.map(bits) == want.map(bits)) :|
          s"n=${ys.length} kinds=$kinds eps=$eps: ${got.length} vs ${want.length} pieces"
    })
  }

  test("lossy partition equals the sequential relaxation, piece for piece") {
    val cases = for {
      ys <- series
      kindsAndEps <- pairs(Seq(0L))
      eps <- Gen.oneOf(NeaTS.epsGrid(ys))
    } yield (ys, kindsAndEps._1, eps)
    check(Prop.forAllNoShrink(cases) { case (ys, kinds, eps) =>
      val shift = NeaTS.shiftFor(ys, eps)
      val got = Partitioner.run(ys, shift, kinds.map(_ -> eps), lossy = true)
      val want = sequential(ys, shift, kinds, Seq(eps), lossy = true)
      Prop(got.map(bits) == want.map(bits)) :|
        s"n=${ys.length} kinds=$kinds eps=$eps: ${got.length} vs ${want.length} pieces"
    })
  }

  test("a fit live across two buffer swaps keeps its parameters") {
    // Noise, then a 2,500-point constant run from inside block 0 or 1, then
    // noise: the fits over the run stay live while the next two blocks are
    // awaited and the run's own block buffer is refilled.
    val rng = new Random(11)
    for (runStart <- Seq(block / 2, block + 100)) {
      val n = runStart + 2500 + 2 * block
      val ys = Array.tabulate(n) { i =>
        if (i >= runStart && i < runStart + 2500) 5000L else 5000L + rng.nextInt(2001) - 1000
      }
      val grid = NeaTS.epsGrid(ys)
      val shift = NeaTS.shiftFor(ys, grid.max)
      for (kinds <- Seq(FunctionKind.all, Seq(LinearKind))) {
        val got = Partitioner.lossless(ys, shift, kinds, grid)
        val (swap1, swap2) = ((runStart / block + 1) * block, (runStart / block + 2) * block)
        assert(got.exists(p => p.start < swap1 && p.end > swap2), s"no piece spans nodes $swap1 and $swap2")
        assert(got.map(bits) === sequential(ys, shift, kinds, grid, lossy = false).map(bits), s"run from $runStart")
      }
    }
  }

  test("a failing chain task reaches the caller with its type, none left queued") {
    // A null kind makes its pair's task throw; the others must still be
    // joined before the failure is rethrown. One worker runs every task, so
    // a task that was not joined would still be in its queue.
    val ys = Array.tabulate(3 * block)(i => (i % 97).toLong)
    val kinds: Array[FunctionKind] = Array(LinearKind, QuadraticKind, null, RadicalKind, ExponentialKind)
    val pool = new java.util.concurrent.ForkJoinPool(1)
    try {
      val (thrown, queued) = pool.submit(new java.util.concurrent.Callable[(Throwable, Int)] {
        def call(): (Throwable, Int) = {
          val chains = new Chains(ys, 1L, kinds, kinds.map(_ => 4L))
          chains.start(block)
          val thrown = try { chains.await(); null } catch { case t: Throwable => t }
          (thrown, java.util.concurrent.ForkJoinTask.getQueuedTaskCount)
        }
      }).get()
      assert(thrown.isInstanceOf[NullPointerException], thrown)
      assert(queued === 0)
    } finally pool.shutdown()
  }
}

object PartitionerParallelSpec {
  import java.lang.Double.doubleToRawLongBits

  /** A piece with its parameters as raw bits, so that equality is exact. */
  def bits(p: Piece): (Int, Int, FunctionKind, Long, Long, Long, Long, Int) =
    (p.start, p.end, p.kind, doubleToRawLongBits(p.m), doubleToRawLongBits(p.b),
     doubleToRawLongBits(p.p3), p.eps, p.corrBits)

  /** Algorithm 1 as a single loop that fits each dead approximation in
    * place, the reference for the block-parallel partitioner.
    */
  def sequential(ys: Array[Long], shift: Long, kinds: Seq[FunctionKind],
                 epsilons: Seq[Long], lossy: Boolean): Vector[Piece] = {
    val n = ys.length
    val Inf = Long.MaxValue / 4
    val pairs = (for { f <- kinds; e <- epsilons.distinct.sorted } yield (f, e)).toArray
    val nP = pairs.length
    val live = new Array[Fit](nP)
    val bitsPerPoint = pairs.map { case (_, e) => if (lossy) 0L else Partitioner.corrBits(e).toLong }
    val kap = pairs.map { case (f, _) => if (lossy) Partitioner.lossyBits(f) else Partitioner.kappa(f) }
    val scratch = new FeasibleRegion
    val distance = Array.fill(n + 1)(Inf)
    distance(0) = 0L
    val prevNode = Array.fill(n + 1)(-1)
    val prevFit = new Array[Fit](n + 1)
    val prevEps = new Array[Long](n + 1)
    for (k <- 0 until n) {
      for (p <- 0 until nP) {
        if (live(p) == null || live(p).end <= k)
          live(p) = ConvexFit.longestFragment(ys, shift, k, pairs(p)._1, pairs(p)._2, scratch)
        val f = live(p)
        val i = f.start
        if (f.end > k && i < k && distance(i) < Inf) {
          val w = (k - i).toLong * bitsPerPoint(p) + kap(p)
          if (distance(k) > distance(i) + w) {
            distance(k) = distance(i) + w
            prevNode(k) = i; prevFit(k) = f; prevEps(k) = pairs(p)._2
          }
        }
      }
      if (distance(k) < Inf) {
        for (p <- 0 until nP) {
          val f = live(p)
          val j = f.end
          if (j > k && f.start <= k) {
            val w = (j - k).toLong * bitsPerPoint(p) + kap(p)
            if (distance(j) > distance(k) + w) {
              distance(j) = distance(k) + w
              prevNode(j) = k; prevFit(j) = f; prevEps(j) = pairs(p)._2
            }
          }
        }
      }
    }
    val out = scala.collection.mutable.ArrayBuffer[Piece]()
    var node = n
    while (node != 0) {
      val i = prevNode(node)
      val f = prevFit(node)
      val e = prevEps(node)
      out += Piece(i, node, f.kind, f.m, f.b, f.p3, e, if (lossy) 0 else Partitioner.corrBits(e))
      node = i
    }
    out.reverse.toVector
  }
}
