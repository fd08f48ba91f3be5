package repro.core.neats

import repro.core.approx._

/** One fragment of the final partition: points [start, end), approximated by
  * `kind` with stored parameters (m, b, p3) under error bound `eps`;
  * `corrBits` = ceil(log2(2*eps+1)) is the per-point correction width.
  */
final case class Piece(start: Int, end: Int, kind: FunctionKind,
                       m: Double, b: Double, p3: Double,
                       eps: Long, corrBits: Int) {
  def length: Int = end - start
  def approx(idx: Int): Long = kind.approx(idx, m, b, p3)
}

/** Algorithm 1: space-optimal partitioning of a time series into fragments,
  * each eps-approximated by some (kind, eps) in F x E.
  *
  * Shortest path on the DAG with one node per point boundary (0..n): every
  * live approximation J_{f,eps} spanning (i, j) contributes, at the visit of
  * node k in between, the prefix edge (i, k) and the suffix edge (k, j);
  * edge weight = exact encoded size (corrections + parameters + metadata).
  * Runs in O(|F| |E| n) amortised; the fitting, nearly all of that work,
  * runs in parallel, a block of nodes ahead of the relaxation (see
  * [[Chains]]).
  */
object Partitioner {

  /** Correction width in bits for an error bound eps (paper: ceil(log(2e+1))).
    * Signed two's-complement in this many bits always covers [-eps, eps]
    * because 2*eps+1 is odd (so the ceiling rounds up past it).
    */
  def corrBits(eps: Long): Int =
    if (eps == 0) 0 else 64 - java.lang.Long.numberOfLeadingZeros(2 * eps) // ceil(log2(2e+1)) for e>=1

  /** Per-fragment overhead in bits: parameters + amortised metadata share
    * (S and O Elias-Fano entries, B width, K kind bits).
    */
  def kappa(kind: FunctionKind): Long = 64L * kind.nParams + 48L

  /** Lossy size of one fragment, as Table II reports it: its parameters and
    * a 32-bit start. The lossy partition's edge weight, so that its reported
    * size is the least over the DAG's paths.
    */
  def lossyBits(kind: FunctionKind): Long = 64L * kind.nParams + 32L

  /** Bits per point of a piece with error bound eps: none when lossy. */
  private[neats] def pointBits(eps: Long, lossy: Boolean): Int = if (lossy) 0 else corrBits(eps)

  private val Inf = Long.MaxValue / 4

  /** Lossless partitioning over every (kind, eps) in kinds x epsilons
    * (weights include the correction storage).
    */
  def lossless(ys: Array[Long], shift: Long,
               kinds: Seq[FunctionKind], epsilons: Seq[Long]): Vector[Piece] = {
    val eps = epsilons.distinct.sorted
    run(ys, shift, kinds.flatMap(f => eps.map(f -> _)), lossy = false)
  }

  /** DAG nodes per block of the pipelined chain fill (see [[Chains]]). */
  private[neats] final val BlockNodes = 1024

  /** Algorithm 1 over the (kind, eps) `pairs`.
    *
    * Each pair's live approximation is two ints, its start and end, taken
    * from [[Chains]] at the node where the last one died. A node remembers
    * the edge that reached it as the node it came from, the pair, and the
    * start of the pair's fit that spans the edge; the path's pieces are then
    * refitted from those starts, with the same `longestFragment` call the
    * chain made, so their parameters are the chain fits' bit for bit.
    */
  private[neats] def run(ys: Array[Long], shift: Long, pairs: Seq[(FunctionKind, Long)],
                         lossy: Boolean): Vector[Piece] = {
    val n = ys.length
    if (n == 0) return Vector.empty
    require(pairs.nonEmpty, "need at least one (kind, eps) pair")
    val (pairKind, pairEps) = pairs.toArray.unzip
    val nP = pairKind.length
    val liveStart = new Array[Int](nP)
    val liveEnd = new Array[Int](nP) // 0: every pair is refreshed at node 0
    val bitsPerPoint = pairEps.map(pointBits(_, lossy).toLong)
    val kap = pairKind.map(f => if (lossy) lossyBits(f) else kappa(f))

    val chains = new Chains(ys, shift, pairKind, pairEps)
    val distance = Array.fill(n + 1)(Inf)
    distance(0) = 0L
    val prevNode = Array.fill(n + 1)(-1)
    val prevPair = new Array[Int](n + 1)
    val prevStart = new Array[Int](n + 1)

    chains.start(math.min(n, BlockNodes))
    try {
      var k = 0
      while (k < n) {
        if (k % BlockNodes == 0) { // block k / BlockNodes is fitted; fit the next one meanwhile
          chains.await()
          if (k + BlockNodes < n) chains.start(math.min(n, k + 2 * BlockNodes))
        }
        // Refresh dead approximations and relax prefix edges (i, k). An
        // unreachable i has distance Inf, and Inf + w never wins.
        var dk = distance(k)
        var p = 0
        while (p < nP) {
          if (liveEnd(p) <= k) { liveStart(p) = k; liveEnd(p) = chains.next(p) }
          val i = liveStart(p)
          if (i < k) {
            val d = distance(i) + (k - i).toLong * bitsPerPoint(p) + kap(p)
            if (d < dk) { dk = d; prevNode(k) = i; prevPair(k) = p; prevStart(k) = i }
          }
          p += 1
        }
        distance(k) = dk
        // Relax suffix edges (k, j).
        if (dk < Inf) {
          p = 0
          while (p < nP) {
            val j = liveEnd(p)
            if (j > k) {
              val d = dk + (j - k).toLong * bitsPerPoint(p) + kap(p)
              if (d < distance(j)) { distance(j) = d; prevNode(j) = k; prevPair(j) = p; prevStart(j) = liveStart(p) }
            }
            p += 1
          }
        }
        k += 1
      }
    } finally chains.drain() // no fit task outlives the call, even on a throw
    require(distance(n) < Inf,
      "node n unreachable — no (kind, eps) pair could cover some point; include LinearKind")

    // Read the shortest path's nodes backwards, then refit its pieces. Each
    // refit is as long as the chain fit it repeats, and they are independent,
    // so they run in parallel: one after another, with few pairs (NeaTS-L's
    // four), they took about as long as the whole fill.
    val ends = Iterator.iterate(n)(prevNode(_)).takeWhile(_ != 0).toArray.reverse
    val pieces = new Array[Piece](ends.length)
    java.util.stream.IntStream.range(0, ends.length).parallel().forEach { q =>
      val j = ends(q)
      val p = prevPair(j)
      val piece = refit(ys, shift, prevStart(j), prevNode(j), j, pairKind(p), pairEps(p), lossy, new FeasibleRegion)
      require(piece.end == j, s"refit of ${pairKind(p)} eps=${pairEps(p)} from ${prevStart(j)} ends at ${piece.end} < $j")
      pieces(q) = piece
    }
    pieces.toVector
  }

  /** The piece [from, until) of (kind, eps)'s longest fragment from `start`
    * <= `from`, or shorter (but not empty) where that fragment ends first.
    */
  private[neats] def refit(ys: Array[Long], shift: Long, start: Int, from: Int, until: Int,
                           kind: FunctionKind, eps: Long, lossy: Boolean, region: FeasibleRegion): Piece = {
    val f = ConvexFit.longestFragment(ys, shift, start, kind, eps, region)
    Piece(from, math.max(from + 1, math.min(f.end, until)), kind, f.m, f.b, f.p3, eps, pointBits(eps, lossy))
  }
}

/** The greedy chain of fits of every (kind, eps) pair, as Algorithm 1
  * consumes them: a pair's fit starting at node k is the longest fragment
  * from k, and its successor starts at max(end, k + 1), the first node at
  * which the relaxation finds it dead. A chain thus depends only on the data
  * and its pair, so the chains are extended in parallel, a block of nodes
  * at a time, one fork-join task per pair (on the common pool when called
  * from outside a fork-join pool), each with its own region; each task makes
  * the same `fitEnd` calls, with the same arguments, that the sequential
  * relaxation would, so the partition does not depend on the scheduling.
  *
  * A fit is queued as its end alone: its start is the node at which the
  * relaxation takes it, and its parameters are solved only if it ends up on
  * the shortest path. The fill is pipelined: `start` forks the tasks of the
  * block after the one being relaxed into the other of two buffers of ends,
  * and `await` joins them when the relaxation reaches that block. The
  * relaxation copies each end it takes, so swapping buffers under a live fit
  * is safe.
  */
private final class Chains(ys: Array[Long], shift: Long,
                           kinds: Array[FunctionKind], eps: Array[Long]) {
  private val buffers = Array.fill(2, kinds.length)(new Array[Int](math.min(ys.length, Partitioner.BlockNodes)))
  private var started = 0 // blocks started; block b fills buffers(b % 2)
  private var pending: Array[Extend] = null // the started block's tasks until awaited
  private var queue = buffers(0) // the awaited block's ends, which `next` reads
  private val taken = new Array[Int](kinds.length)
  private val nextStart = new Array[Int](kinds.length)
  private val regions = Array.fill(kinds.length)(new FeasibleRegion)

  private final class Extend(p: Int, until: Int, out: Array[Int]) extends java.util.concurrent.RecursiveAction {
    def compute(): Unit = {
      var start = nextStart(p)
      var q = 0
      while (start < until) {
        val end = ConvexFit.fitEnd(ys, shift, start, kinds(p), eps(p), regions(p))
        out(q) = end
        q += 1
        start = math.max(end, start + 1)
      }
      nextStart(p) = start
    }
  }

  /** Forks the tasks that queue the ends of every pair's fits starting
    * before node `until`. The previous block must have been awaited, and the
    * one before it fully taken: its buffer is reused. Each task is forked on
    * its own, so that `await` can run the ones no worker has taken yet.
    */
  def start(until: Int): Unit = {
    val buf = buffers(started % 2)
    pending = Array.tabulate(kinds.length)(p => new Extend(p, until, buf(p)))
    pending.foreach(_.fork())
    started += 1
  }

  /** Joins the started block, latest fork first, and makes its ends the
    * ones `next` returns. Every task is joined before the first failure is
    * rethrown, so none is left running.
    */
  def await(): Unit = {
    val tasks = pending
    pending = null
    var failure: Throwable = null
    var i = tasks.length - 1
    while (i >= 0) {
      tasks(i).quietlyJoin()
      if (failure == null) failure = tasks(i).getException
      i -= 1
    }
    if (failure != null) throw failure
    queue = buffers((started - 1) % 2)
    java.util.Arrays.fill(taken, 0)
  }

  /** Waits for a started block that was never awaited (after a throw). */
  def drain(): Unit = if (pending != null) {
    pending.foreach(_.quietlyJoin())
    pending = null
  }

  /** The end of pair p's next fit: the one starting at the node being
    * relaxed.
    */
  def next(p: Int): Int = {
    taken(p) += 1
    queue(p)(taken(p) - 1)
  }
}
