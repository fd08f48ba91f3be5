package repro.core.neats

import repro.core.approx._

/** Top-level NeaTS compressor (lossless + lossy) and its speed-oriented
  * variants LeaTS (linear functions only) and SNeaTS (model selection of the
  * top-5 most used (kind, eps) pairs on a prefix sample), per §IV-C1.
  */
object NeaTS {

  val defaultKinds: Vector[FunctionKind] = FunctionKind.all

  /** One eps per achievable correction width, up to the value range
    * D = max - min + 1 (the paper's complexity analysis uses the grid
    * {0, 2, ..., 2^ceil(log D)} of the same size). For a width of b bits the
    * largest representable eps is 2^(b-1) - 1, so the grid {0, 1, 3, 7, ...}
    * gets the longest fragments possible at each storage cost.
    */
  def epsGrid(ys: Array[Long]): Seq[Long] = {
    if (ys.isEmpty) return Seq(0L)
    val delta = math.max(1L, ys.max - ys.min + 1)
    val maxExp = math.min(40, 64 - java.lang.Long.numberOfLeadingZeros(delta - 1).toInt) // ceil(log2 delta)
    0L +: (1 to math.max(1, maxExp)).map(k => (1L << k) - 1)
  }

  /** Global value shift rebasing the series on its minimum: every
    * y' = y + shift = y - min + epsMax + 1 lies in [epsMax + 1, max - min +
    * epsMax + 1], so log-space kinds stay in-domain for every eps in the grid
    * (footnote 2) and fits see the same small values wherever the series sits
    * (at 2^24 and above, fitting `(y + shift).toDouble` loses precision).
    * The shift is negative for series above epsMax + 1. It may wrap for
    * minimums near Long.MinValue; that is harmless, because encoding adds it
    * and decoding subtracts it mod 2^64, so values stay exact as long as
    * max - min + epsMax + 1 < 2^63.
    */
  def shiftFor(ys: Array[Long], epsMax: Long): Long = {
    if (ys.isEmpty) return 0L
    epsMax + 1 - ys.min
  }

  /** Lossless compression with the given kinds over the eps grid. */
  def compress(ys: Array[Long], kinds: Seq[FunctionKind] = defaultKinds): NeaTSCompressed = {
    val eps = epsGrid(ys)
    val shift = shiftFor(ys, eps.max)
    val pieces = Partitioner.lossless(ys, shift, kinds, eps)
    NeaTSCompressed.build(ys, shift, repair(ys, shift, pieces, lossy = false))
  }

  /** LeaTS: linear functions only (5x faster compression in the paper). */
  def compressLinearOnly(ys: Array[Long]): NeaTSCompressed =
    compress(ys, kinds = Seq(LinearKind))

  /** SNeaTS: compress with just the [[selectedPairs]]. */
  def compressSelected(ys: Array[Long]): NeaTSCompressed = {
    val eps = epsGrid(ys)
    val shift = shiftFor(ys, eps.max)
    val pieces = Partitioner.run(ys, shift, selectedPairs(ys, shift, eps), lossy = false)
    NeaTSCompressed.build(ys, shift, repair(ys, shift, pieces, lossy = false))
  }

  /** SNeaTS's model selection: run Algorithm 1 on the first 10% of the
    * series and keep the top-5 most-used (kind, eps) pairs, adding a linear
    * pair as a safety net if none is linear. `shift` and `eps` are the whole
    * series' [[shiftFor]] and [[epsGrid]].
    */
  private[neats] def selectedPairs(ys: Array[Long], shift: Long, eps: Seq[Long]): Seq[(FunctionKind, Long)] = {
    val sampleLen = math.max(64, math.min(ys.length, (ys.length * 0.10).toInt))
    val samplePieces = Partitioner.lossless(ys.take(sampleLen), shift, defaultKinds, eps)
    val counts = samplePieces
      .groupBy(p => (p.kind, p.eps))
      .map { case (pair, ps) => pair -> ps.map(_.length).sum }
      .toSeq.sortBy(-_._2)
    val selected = counts.take(5).map(_._1)
    if (selected.exists(_._1 == LinearKind)) selected else selected :+ (LinearKind, eps.max)
  }

  /** NeaTS-L: lossy compression under a single error bound eps; the output is
    * the same layout with zero-width corrections (decompression returns the
    * approximation, max error <= eps).
    */
  def compressLossy(ys: Array[Long], eps: Long): NeaTSCompressed = {
    val shift = shiftFor(ys, eps)
    NeaTSCompressed.build(ys, shift, lossyPieces(ys, shift, eps))
  }

  /** NeaTS-L's pieces at `shift` = `shiftFor(ys, eps)` (for Table II). */
  def lossyPieces(ys: Array[Long], shift: Long, eps: Long): Vector[Piece] =
    repair(ys, shift, Partitioner.run(ys, shift, defaultKinds.map(_ -> eps), lossy = true), lossy = true)

  /** Floating-point safety net: the convex fitting runs on doubles, so a
    * correction can in rare cases land just outside [-eps, eps]. Verify each
    * piece; at the first violation, keep the valid prefix (or, for an
    * immediate violation, an exact single-point linear piece) and refit the
    * rest with the same (kind, eps), piece after piece, until the original
    * piece's end. Only ever splits pieces, preserving correctness. With the
    * rebase in `shiftFor` it is rarely needed: on series lifted by 2^24 to
    * 2^30 (the offset benchmark, seed 1) it split 34,187 pieces when fits
    * ran on the lifted values, and none since.
    */
  private[neats] def repair(ys: Array[Long], shift: Long,
                            pieces: Vector[Piece], lossy: Boolean): Vector[Piece] = {
    val out = scala.collection.mutable.ArrayBuffer[Piece]()
    val region = new FeasibleRegion
    pieces.foreach { piece =>
      var cur = piece
      while (cur != null) {
        var v = cur.start
        while (v < cur.end && math.abs((ys(v) + shift) - cur.approx(v)) <= cur.eps) v += 1
        // the verified prefix or, at a violation on the first point, an exact constant piece
        out += (if (v > cur.start) cur.copy(end = v)
                else cur.copy(end = v + 1, kind = LinearKind, m = 0.0, b = (ys(v) + shift).toDouble, p3 = 0.0))
        val next = out.last.end
        cur = if (next < piece.end)
          Partitioner.refit(ys, shift, next, next, piece.end, piece.kind, piece.eps, lossy, region)
        else null
      }
    }
    out.toVector
  }
}
