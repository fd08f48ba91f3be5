package repro.core.bits

import java.util.Random
import org.scalacheck.{Gen, Prop}
import repro.{FixedSeed, SparkSpec}

class BitsSpec extends SparkSpec {

  test("BitWriter/BitReader roundtrip of mixed widths") {
    val rng = new Random(1)
    val items = Seq.fill(2000) {
      val w = rng.nextInt(65)
      val v = if (w == 0) 0L else rng.nextLong() & (if (w == 64) -1L else (1L << w) - 1)
      (v, w)
    }
    val bw = new BitWriter()
    items.foreach { case (v, w) => bw.append(v, w) }
    val r = bw.reader
    var pos = 0L
    items.foreach { case (v, w) =>
      assert(r.get(pos, w) === v, s"at pos $pos width $w")
      pos += w
    }
    assert(pos === bw.lengthInBits)
  }

  test("BitWriter appendBit and getBit agree") {
    val rng = new Random(2)
    val bits = Seq.fill(500)(rng.nextBoolean())
    val bw = new BitWriter()
    bits.foreach(bw.appendBit)
    val r = bw.reader
    bits.zipWithIndex.foreach { case (b, i) => assert(r.getBit(i.toLong) === b) }
  }

  test("BitReader getSigned sign-extends") {
    val bw = new BitWriter()
    val values = Seq((-3L, 3), (3L, 3), (-1L, 1), (0L, 5), (-128L, 8), (127L, 8), (-1000L, 11))
    values.foreach { case (v, w) => bw.append(v, w) }
    val r = bw.reader
    var pos = 0L
    values.foreach { case (v, w) =>
      assert(r.getSigned(pos, w) === v, s"value $v width $w")
      pos += w
    }
  }

  test("width 64 values including negatives roundtrip") {
    val bw = new BitWriter()
    val vs = Seq(Long.MinValue, Long.MaxValue, -1L, 0L, 42L)
    vs.foreach(v => bw.append(v, 64))
    val r = bw.reader
    vs.zipWithIndex.foreach { case (v, i) => assert(r.get(i * 64L, 64) === v) }
  }

  test("FixedWidthArray stores and retrieves") {
    val rng = new Random(3)
    for (width <- Seq(1, 3, 7, 13, 31, 63)) {
      val mask = (1L << width) - 1
      val vs = Array.fill(300)(rng.nextLong() & mask)
      val fwa = FixedWidthArray(vs, width)
      assert(fwa.length === 300)
      vs.zipWithIndex.foreach { case (v, i) => assert(fwa(i) === v, s"width $width idx $i") }
    }
  }

  test("FixedWidthArray.bitsFor picks minimal sufficient width") {
    assert(FixedWidthArray.bitsFor(0) === 1)
    assert(FixedWidthArray.bitsFor(1) === 1)
    assert(FixedWidthArray.bitsFor(2) === 2)
    assert(FixedWidthArray.bitsFor(255) === 8)
    assert(FixedWidthArray.bitsFor(256) === 9)
  }

  test("FixedWidthArray rejects out-of-range access") {
    val fwa = FixedWidthArray(Array(1L, 2L), 2)
    intercept[IllegalArgumentException](fwa(-1))
    intercept[IllegalArgumentException](fwa(2))
  }
}

class BitVectorSpec extends SparkSpec {
  private def naive(bits: Seq[Boolean]) = bits

  private def checkAll(bits: Seq[Boolean]): Unit = {
    val bv = BitVector.fromBooleans(bits)
    assert(bv.length === bits.length)
    val prefOnes = bits.scanLeft(0L)((acc, b) => acc + (if (b) 1 else 0))
    (0 to bits.length).foreach(i => assert(bv.rank1(i.toLong) === prefOnes(i), s"rank1($i)"))
    val onePos = bits.zipWithIndex.filter(_._1).map(_._2)
    onePos.zipWithIndex.foreach { case (p, j) => assert(bv.select1(j.toLong) === p.toLong, s"select1($j)") }
    val zeroPos = bits.zipWithIndex.filterNot(_._1).map(_._2)
    zeroPos.zipWithIndex.foreach { case (p, j) => assert(bv.select0(j.toLong) === p.toLong, s"select0($j)") }
    bits.zipWithIndex.foreach { case (b, i) => assert(bv(i.toLong) === b) }
  }

  test("rank/select on random vectors of several lengths") {
    val rng = new Random(4)
    for (len <- Seq(1, 7, 63, 64, 65, 511, 512, 513, 2000)) {
      checkAll(Seq.fill(len)(rng.nextBoolean()))
    }
  }

  test("rank/select on sparse and dense vectors") {
    val rng = new Random(5)
    checkAll(Seq.fill(1500)(rng.nextInt(100) == 0)) // sparse
    checkAll(Seq.fill(1500)(rng.nextInt(100) != 0)) // dense
    checkAll(Seq.fill(700)(true))
    checkAll(Seq.fill(700)(false))
  }

  /** The loop that broadword select replaced: clear the r lowest set bits. */
  private def selectByLoop(x: Long, r: Int): Int = {
    var word = x
    var need = r
    while (need > 0) { word &= word - 1; need -= 1 }
    java.lang.Long.numberOfTrailingZeros(word)
  }

  private def selectsDiffer(x: Long): Seq[Int] =
    (0 until java.lang.Long.bitCount(x)).filter(r => BitVector.selectInWord(x, r) != selectByLoop(x, r))

  test("broadword select equals the clear-lowest-bit loop at every rank of a word") {
    val fixed = Seq(1L << 63, -1L, 1L, 0x8000000000000001L, 0x5555555555555555L) ++ (0 until 64).map(1L << _)
    fixed.foreach(x => assert(selectsDiffer(x).isEmpty, f"word $x%016x"))
    val sparse = for (a <- Gen.long; b <- Gen.long; c <- Gen.long) yield a & b & c
    val words = Gen.oneOf(Gen.long, sparse, Gen.choose(0, 63).map(b => 1L << b), Gen.long.map(_ | (1L << 63)))
    FixedSeed.check(Prop.forAllNoShrink(words) { x =>
      val differ = selectsDiffer(x)
      Prop(differ.isEmpty) :| f"word $x%016x, ranks ${differ.mkString(", ")}"
    }, 20261019L, cases = 2000)
  }

  test("select bounds are enforced") {
    val bv = BitVector.fromBooleans(Seq(true, false, true))
    intercept[IllegalArgumentException](bv.select1(2))
    intercept[IllegalArgumentException](bv.select0(1))
  }
}

class EliasFanoSpec extends SparkSpec {

  private def check(values: Array[Long]): Unit = {
    val ef = EliasFano(values)
    assert(ef.length === values.length)
    values.zipWithIndex.foreach { case (v, i) => assert(ef(i) === v, s"access($i)") }
    // rank over a probe set: all values +- 1 and random points
    val probes = values.flatMap(v => Seq(v - 1, v, v + 1)).filter(_ >= 0) ++ Seq(0L)
    probes.foreach { q =>
      val expected = values.count(_ <= q)
      assert(ef.rank(q) === expected, s"rank($q)")
    }
  }

  test("monotone random sequences roundtrip with rank") {
    val rng = new Random(7)
    for (n <- Seq(1, 2, 10, 100, 1000)) {
      val vs = Array.iterate(rng.nextInt(10).toLong, n)(v => v + rng.nextInt(50))
      check(vs)
    }
  }

  test("sequences with repeats") {
    check(Array(0L, 0L, 0L, 5L, 5L, 9L, 9L, 9L, 9L))
    check(Array.fill(100)(7L))
    check(Array(0L))
  }

  test("dense sequence (consecutive integers)") {
    check(Array.tabulate(500)(_.toLong))
  }

  test("sparse sequence (large universe)") {
    val rng = new Random(8)
    val vs = Array.iterate(1000000L, 200)(v => v + 1 + rng.nextInt(1000000))
    check(vs)
  }

  test("high bits are the positions (v >>> l) + i, as fromBooleans sets them") {
    val rng = new Random(6)
    for (n <- Seq(0, 1, 2, 100, 1000)) {
      val vs = Array.iterate(rng.nextInt(10).toLong, n)(v => v + rng.nextInt(50))
      val ef = EliasFano(vs)
      val positions = vs.indices.map(i => (vs(i) >>> ef.lowBits) + i).toSet
      val expected = BitVector.fromBooleans((0L until ef.highs.length).map(positions.contains))
      assert(ef.highs.words.toSeq === expected.words.toSeq)
      assert(ef.highs.countOnes === n)
    }
  }

  /** Monotone sequences with repeats, over dense and sparse universes; a
    * dense one of n values below n has lowBits = 0.
    */
  private val sequences: Gen[Array[Long]] = for {
    n <- Gen.choose(1, 400)
    maxGap <- Gen.oneOf(0L, 1L, 2L, 50L, 1L << 20, 1L << 40)
    repeats <- Gen.oneOf(0.0, 0.3, 0.9)
    first <- Gen.choose(0L, 1000L)
    seed <- Gen.long
  } yield {
    val rng = new Random(seed)
    Array.iterate(first, n) { v =>
      if (rng.nextDouble() < repeats) v else v + 1 + (rng.nextLong() & Long.MaxValue) % (maxGap + 1)
    }
  }

  test("predecessor equals (rank(v), apply(rank(v) - 1)) at and between the elements") {
    FixedSeed.check(Prop.forAllNoShrink(sequences) { vs =>
      val ef = EliasFano(vs)
      val probes = (vs.flatMap(v => Seq(v - 1, v, v + 1, v + (v >>> 1))) ++ Seq(0L, vs.last + 1000)).filter(_ >= 0)
      val wrong = probes.filterNot { v =>
        val rank = vs.count(_ <= v)
        val pred = ef.predecessor(v)
        pred.toInt == rank && ef.rank(v) == rank &&
          (pred >>> 32) == (if (rank == 0) 0L else ef(rank - 1) & 0xffffffffL)
      }
      Prop(wrong.isEmpty) :| s"n=${vs.length}, lowBits=${ef.lowBits}: wrong at ${wrong.take(5).mkString(", ")}"
    }, 20261019L, cases = 200)
  }

  test("predecessor covers lowBits = 0 and sequences of one repeated value") {
    for (vs <- Seq(Array.tabulate(300)(_.toLong), Array.fill(70)(5L), Array(0L, 0L, 3L, 3L, 3L, 9L))) {
      val ef = EliasFano(vs)
      (0L to vs.last + 2).foreach { v =>
        val rank = vs.count(_ <= v)
        val want = ((if (rank == 0) 0L else vs(rank - 1)) << 32) | rank
        assert(ef.predecessor(v) === want, s"v=$v, lowBits=${ef.lowBits}")
      }
    }
    assert(EliasFano(Array.tabulate(300)(_.toLong)).lowBits === 0)
  }

  test("rank below the first element is 0") {
    val ef = EliasFano(Array(2L, 5L, 9L))
    assert(ef.rank(1) === 0)
  }
}

class WaveletTreeSpec extends SparkSpec {

  private def check(symbols: Array[Int]): Unit = {
    val wt = WaveletTree(symbols, 4)
    symbols.zipWithIndex.foreach { case (s, i) => assert(wt(i) === s, s"access($i)") }
    for (sym <- 0 until 4; i <- 0 to symbols.length by math.max(1, symbols.length / 50)) {
      val expected = symbols.take(i).count(_ == sym)
      assert(wt.rank(sym, i) === expected, s"rank($sym, $i)")
    }
  }

  test("inverseSelect equals (apply(i), rank(apply(i), i)) for sigma 4") {
    val strings = for {
      n <- Gen.choose(1, 600)
      skew <- Gen.oneOf(false, true)
      seed <- Gen.long
    } yield {
      val rng = new Random(seed)
      Array.fill(n)(if (skew && rng.nextInt(4) > 0) 3 else rng.nextInt(4))
    }
    FixedSeed.check(Prop.forAllNoShrink(strings) { symbols =>
      val wt = WaveletTree(symbols, 4)
      val counts = new Array[Int](4)
      val wrong = symbols.indices.filterNot { i =>
        val sym = symbols(i)
        val want = (sym.toLong << 32) | counts(sym)
        counts(sym) += 1
        wt.inverseSelect(i) == want && wt(i) == sym && wt.rank(sym, i) == want.toInt
      }
      Prop(wrong.isEmpty) :| s"n=${symbols.length}: wrong at ${wrong.take(5).mkString(", ")}"
    }, 20261019L, cases = 200)
  }

  test("every sigma but 4 and every symbol outside [0, 4) is rejected") {
    for (sigma <- Seq(Int.MinValue, -1, 0, 1, 2, 3, 5, 8, 9, Int.MaxValue))
      intercept[IllegalArgumentException](WaveletTree(Array(0), sigma))
    for (sym <- Seq(-1, 4, Int.MaxValue))
      intercept[IllegalArgumentException](WaveletTree(Array(0, sym), 4))
  }

  test("the NeaTS use case: kind string over 4 kinds") {
    val rng = new Random(10)
    val ks = Array.fill(3000)(rng.nextInt(4))
    val wt = WaveletTree(ks, 4)
    // exhaustive rank check for this central use
    val counts = Array.fill(4)(0)
    ks.zipWithIndex.foreach { case (s, i) =>
      (0 until 4).foreach(sym => assert(wt.rank(sym, i) === counts(sym)))
      counts(s) += 1
      assert(wt(i) === s)
    }
  }

  test("empty-ish and skewed strings") {
    check(Array.empty[Int])
    check(Array(3))
    check(Array.fill(100)(2) ++ Array.fill(100)(0))
  }
}
