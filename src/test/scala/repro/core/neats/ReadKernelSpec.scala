package repro.core.neats

import java.util.Random
import org.scalacheck.{Gen, Prop}
import repro.{FixedSeed, SparkSpec}
import repro.core.bits._

/** The static kernels that Algorithm 3 and `range` call on the layout's
  * word arrays, checked against the structures' own methods and against a
  * plain reference, and the read path that calls them on series whose S and
  * O span several 512-bit superblocks. Every property runs from one fixed
  * seed.
  */
class ReadKernelSpec extends SparkSpec {

  private def check(prop: Prop, cases: Int): Unit = FixedSeed.check(prop, 20261020L, cases)

  /** Words of 1 to 40 superblocks at one of four densities, and a length
    * that leaves up to two words of garbage set past it.
    */
  private val bitvectors: Gen[(Array[Long], Long)] = for {
    blocks <- Gen.choose(1, 40)
    density <- Gen.choose(0, 3)
    garbage <- Gen.choose(0, 127)
    seed <- Gen.long
  } yield {
    val rng = new Random(seed)
    val words = Array.fill(blocks * 8) {
      val (a, b, c) = (rng.nextLong(), rng.nextLong(), rng.nextLong())
      density match { case 0 => a & b & c; case 1 => a; case 2 => a | b | c; case _ => if (rng.nextInt(8) == 0) a else 0L }
    }
    (words, math.max(1L, words.length * 64L - garbage))
  }

  test("BitVector's rank1, select1 and select0 kernels equal its methods and a scan, past-length garbage kept") {
    check(Prop.forAllNoShrink(bitvectors, Gen.long) { case ((words, length), seed) =>
      val bv = new BitVector(words, length)
      val bit = (i: Long) => ((words((i >>> 6).toInt) >>> (i & 63).toInt) & 1L) != 0
      val ones = (0L until length).filter(bit)
      val zeros = (0L until length).filterNot(bit)
      val rng = new Random(seed)
      val wrong = Seq.newBuilder[String]
      for (_ <- 0 until 100) {
        val i = (rng.nextLong() & Long.MaxValue) % (length + 1)
        val rank = BitVector.rank1(words, bv.blockRank, length, i)
        val want = ones.count(_ < i).toLong
        if (rank != bv.rank1(i) || rank != want) wrong += s"rank1($i) = $rank, want $want"
        if (i < length && (BitVector.get(words, length, i) != bv(i) || bv(i) != bit(i))) wrong += s"get($i)"
      }
      for ((positions, select, method, name) <- Seq(
             (ones, BitVector.select1 _, bv.select1 _, "select1"), (zeros, BitVector.select0 _, bv.select0 _, "select0"));
           _ <- 0 until 50 if positions.nonEmpty) {
        val j = rng.nextInt(positions.length)
        val got = select(words, bv.blockRank, length, bv.countOnes, j)
        if (got != method(j) || got != positions(j)) wrong += s"$name($j) = $got, want ${positions(j)}"
      }
      val shown = wrong.result()
      Prop(bv.countOnes == ones.length && shown.isEmpty) :|
        s"${words.length} words, length $length, ${bv.countOnes} ones (want ${ones.length}): ${shown.take(5).mkString("; ")}"
    }, cases = 100)
  }

  /** Monotone sequences over dense universes (lowBits = 0) and sparse ones,
    * long enough for the high bits to span several superblocks.
    */
  private val sequences: Gen[Array[Long]] = for {
    n <- Gen.choose(1, 3000)
    maxGap <- Gen.oneOf(0L, 1L, 2L, 50L, 1L << 20)
    repeats <- Gen.oneOf(0.0, 0.3, 0.9)
    seed <- Gen.long
  } yield {
    val rng = new Random(seed)
    Array.iterate(rng.nextInt(100).toLong, n) { v =>
      if (rng.nextDouble() < repeats) v else v + 1 + (rng.nextLong() & Long.MaxValue) % (maxGap + 1)
    }
  }

  test("EliasFano's get and predecessor kernels equal its methods and the values, lowBits 0 and above") {
    var lowBitsSeen = Set.empty[Boolean]
    check(Prop.forAllNoShrink(sequences) { vs =>
      val ef = EliasFano(vs)
      lowBitsSeen += ef.lowBits > 0
      val (hw, hr, hl, lw, l, len) = (ef.highs.words, ef.highs.blockRank, ef.highs.length, ef.lows.words, ef.lowBits, ef.length)
      val badGet = vs.indices.filterNot { i =>
        val got = EliasFano.get(hw, hr, hl, lw, l, len, i)
        got == ef(i) && got == vs(i)
      }
      val probes = (vs.flatMap(v => Seq(v - 1, v, v + 1)) ++ Seq(0L, vs.last + 1000)).filter(_ >= 0)
      val badPred = probes.filterNot { v =>
        val rank = vs.count(_ <= v)
        val want = ((if (rank == 0) 0L else vs(rank - 1)) << 32) | rank
        val got = EliasFano.predecessor(hw, hr, hl, lw, l, len, ef.firstValue, ef.lastValue, v)
        got == ef.predecessor(v) && got == want
      }
      Prop(badGet.isEmpty && badPred.isEmpty) :|
        s"n=${vs.length}, lowBits=$l, high bits $hl: get wrong at ${badGet.take(5)}, predecessor at ${badPred.take(5)}"
    }, cases = 100)
    assert(lowBitsSeen === Set(false, true))
  }

  test("BitReader.addSigned adds what getSigned reads, at widths 1 to 64, odd offsets and up to the image's last bit") {
    check(Prop.forAllNoShrink(Gen.choose(1, 64), Gen.choose(1, 300), Gen.choose(0, 17), Gen.long) {
      (width, n, before, seed) =>
        val rng = new Random(seed)
        val vs = Array.fill(n)(rng.nextLong() >> rng.nextInt(64))
        // half the runs end on a word's last bit, half start at an odd offset
        val at =
          if (rng.nextBoolean()) (64 - n * width % 64) % 64 + 64 * rng.nextInt(2)
          else 2 * rng.nextInt(64) + 1
        val w = new BitWriter()
        w.append(rng.nextLong(), at % 64)
        w.append(rng.nextLong(), at - at % 64)
        vs.foreach(v => w.append(v, width))
        // the image ends where the array does, so a load past its last word throws
        val image = w.image
        val bytes = new Array[Byte](before + image.length)
        rng.nextBytes(bytes)
        System.arraycopy(image, 0, bytes, before, image.length)
        val reader = new BitReader(bytes, before, w.lengthInBits)
        val from = rng.nextInt(n)
        val until = if (rng.nextBoolean()) n else from + rng.nextInt(n - from + 1)
        val out = Array.fill(n)(rng.nextLong())
        val want = out.clone()
        (from until until).foreach(i => want(i) += reader.getSigned(at + i.toLong * width, width))
        BitReader.addSigned(bytes, before, at + from.toLong * width, width, out, from, until)
        val signed = vs.indices.forall(i =>
          reader.getSigned(at + i.toLong * width, width) == (vs(i) << (64 - width)) >> (64 - width))
        val bad = out.indices.filter(i => out(i) != want(i))
        Prop(signed && bad.isEmpty && w.lengthInBits == at + n.toLong * width) :|
          s"width $width, n $n, start bit $at, image at byte $before, [$from, $until): wrong at ${bad.take(5)}"
    }, cases = 512)
  }

  test("FixedWidthArray.get and BitReader.getSigned equal their methods and the values at widths 1 to 64") {
    check(Prop.forAllNoShrink(Gen.choose(1, 64), Gen.choose(1, 300), Gen.long) { (width, n, seed) =>
      val rng = new Random(seed)
      val mask = -1L >>> (64 - width)
      val vs = Array.fill(n)(rng.nextLong() & mask)
      val fwa = FixedWidthArray(vs, width)
      val badGet = vs.indices.filterNot { i =>
        val got = FixedWidthArray.get(fwa.words, width, n, i)
        got == fwa(i) && got == vs(i)
      }
      val w = new BitWriter()
      w.append(rng.nextLong(), rng.nextInt(64)) // start the cells at an odd offset
      val at = w.lengthInBits
      vs.foreach(v => w.append(v, width))
      val reader = w.reader
      val badSigned = vs.indices.filterNot { i =>
        val pos = at + i.toLong * width
        val got = BitReader.getSigned(reader.bytes, reader.base, pos, width)
        got == reader.getSigned(pos, width) && got == (vs(i) << (64 - width)) >> (64 - width)
      }
      Prop(badGet.isEmpty && badSigned.isEmpty) :|
        s"width $width, n $n: get wrong at ${badGet.take(5)}, getSigned at ${badSigned.take(5)}"
    }, cases = 256)
  }

  test("K's two-level inverseSelect kernel equals apply and rank and the kind string") {
    check(Prop.forAllNoShrink(Gen.choose(1, 5000), Gen.oneOf(false, true), Gen.long) { (n, skew, seed) =>
      val rng = new Random(seed)
      val kinds = Array.fill(n)(if (skew && rng.nextInt(4) > 0) 3 else rng.nextInt(4))
      val k = WaveletTree(kinds, 4)
      val (l0, l1) = (k.level0, k.level1)
      val counts = new Array[Int](4) // occurrences of each kind before i
      val wrong = (0 to n).filterNot { i =>
        val ranked = (0 until 4).forall { sym =>
          WaveletTree.rank(n, l0.words, l0.blockRank, l0.countOnes, l1.words, l1.blockRank, sym, i) == counts(sym)
        }
        if (i == n) ranked
        else {
          val sym = kinds(i)
          val want = (sym.toLong << 32) | counts(sym)
          counts(sym) += 1
          val got = WaveletTree.inverseSelect(n, l0.words, l0.blockRank, l0.countOnes, l1.words, l1.blockRank, i)
          ranked && got == want && k(i) == sym && k.rank(sym, i) == want.toInt
        }
      }
      Prop(wrong.isEmpty) :| s"n=$n: wrong at ${wrong.take(5).mkString(", ")}"
    }, cases = 50)
  }

  /** Runs of 1 to 20 points at random levels up to 2^44, each with a few
    * bits of noise, so that nearly every run is a fragment of its own.
    */
  private val noise: Gen[Array[Long]] = for {
    n <- Gen.choose(4000, 6000)
    bits <- Gen.choose(30, 44)
    seed <- Gen.long
  } yield {
    val rng = new Random(seed)
    val ys = new Array[Long](n)
    var i = 0
    while (i < n) {
      val level = rng.nextLong() >>> (64 - bits)
      val noiseBits = rng.nextInt(7)
      val end = math.min(n, i + 1 + rng.nextInt(20))
      while (i < end) { ys(i) = level + rng.nextInt(1 << noiseBits); i += 1 }
    }
    ys
  }

  test("apply and range return the values at every index of noise series of over 300 fragments, built and reloaded") {
    check(Prop.forAllNoShrink(noise) { ys =>
      val built = NeaTS.compress(ys)
      val wrong = for {
        (what, c) <- Seq("built" -> built, "reloaded" -> NeaTSCompressed.fromBytes(built.toBytes))
        i <- ys.indices
        len = math.min(37, ys.length - i)
        if c(i) != ys(i) || !java.util.Arrays.equals(c.range(i, len), java.util.Arrays.copyOfRange(ys, i, i + len))
      } yield s"$what at $i"
      val superblocks = Seq(built.s, built.o).map(ef => (ef.highs.length + 511) / 512)
      Prop(built.numFragments > 300 && superblocks.forall(_ > 1) && wrong.isEmpty &&
           java.util.Arrays.equals(built.decompressAll(), ys)) :|
        s"n=${ys.length}, ${built.numFragments} fragments, S and O over $superblocks superblocks: ${wrong.take(5)}"
    }, cases = 12)
  }
}
