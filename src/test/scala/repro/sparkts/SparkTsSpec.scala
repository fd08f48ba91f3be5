package repro.sparkts

import java.io.File
import java.nio.file.Files
import org.apache.spark.sql.functions._
import org.apache.spark.sql.sources
import repro.{Oracle, SparkSpec}
import repro.core.neats.CorruptBlobException
import repro.data.TimeSeries

/** NeaTS tables written with `NeaTSFiles.write` into temp directories that are
  * deleted after the suite.
  */
trait NeaTSTableSpec extends SparkSpec {
  private val dirs = collection.mutable.Buffer.empty[File]

  override def afterAll(): Unit = {
    dirs.foreach { d => Option(d.listFiles()).foreach(_.foreach(_.delete())); d.delete() }
    super.afterAll()
  }

  protected def tempDir(prefix: String): File = {
    val dir = Files.createTempDirectory(prefix).toFile
    dirs += dir
    dir
  }

  protected def writeTable(name: String, n: Int, groupSize: Int): (String, Array[Long]) = {
    val ds = TimeSeries.dataset(name, n)
    val dir = tempDir(s"neats-$name")
    NeaTSFiles.write(dir.getPath, ds.longs, groupSize)
    (dir.getPath, ds.longs)
  }

  protected def load(dir: String) = spark.read.format(NeaTSDataSource.format).option("path", dir).load()

  protected def pairs(rows: Array[org.apache.spark.sql.Row]): Seq[(Long, Long)] =
    rows.toSeq.map(r => (r.getLong(0), r.getLong(1)))

  protected def indexed(values: Array[Long]): Seq[(Long, Long)] =
    values.toSeq.zipWithIndex.map { case (v, i) => (i.toLong, v) }

  protected def raw(values: Array[Long]) = {
    import spark.implicits._
    indexed(values).toDF("idx", "value")
  }
}

/** Encoding and decoding per row group, without Spark planning: each group is
  * one blob written by `NeaTSFiles.write`, and `NeaTSFiles.Group.read` decodes
  * the rows of an index range from the groups it overlaps.
  */
class NeaTSCodecSpec extends NeaTSTableSpec {
  import spark.implicits._

  /** The rows of [from, until), read straight from the group files. */
  private def readRange(dir: String, from: Long, until: Long): Seq[(Long, Long)] =
    NeaTSFiles.readMeta(dir)._2.filter(_.overlaps(from, until - 1)).flatMap { g =>
      val (first, vs) = g.read(dir, from, until - 1)
      vs.indices.map(k => (first + k, vs(k)))
    }

  test("encode/decode roundtrip through Spark row groups") {
    val (dir, values) = writeTable("IT", 10000, 2048)
    assert(new NeaTSScan(dir, Long.MinValue, Long.MaxValue).planInputPartitions().length === 5)
    val back = load(dir)
    assert(back.count() === 10000)
    assert(pairs(back.orderBy("idx").collect()) === indexed(values))
  }

  test("range query decodes only the overlapping slice, matches full decode") {
    val (dir, values) = writeTable("ECG", 12000, 2048)
    val (_, groups) = NeaTSFiles.readMeta(dir)
    val full = groups.flatMap(g => NeaTSFiles.readGroup(dir, g).range(0, g.count))
    assert(full === values.toSeq)
    for ((from, until) <- Seq((0L, 100L), (2000L, 2100L), (2040L, 6100L), (11900L, 12000L),
                              (3000L, 3000L), (2048L, 2049L), (4095L, 4096L))) {
      for (g <- groups) {
        val (first, vs) = g.read(dir, from, until - 1)
        val (lo, hi) = (math.max(from, g.start), math.min(until, g.start + g.count))
        assert(g.overlaps(from, until - 1) === lo < hi, s"[$from, $until) group ${g.start}")
        assert(vs.length === math.max(0L, hi - lo), s"[$from, $until) group ${g.start}")
        if (vs.nonEmpty) assert(first === lo, s"[$from, $until) group ${g.start}")
      }
      val got = readRange(dir, from, until)
      assert(got.length === (until - from).toInt, s"[$from, $until)")
      got.foreach { case (i, v) => assert(v === full(i.toInt), s"at $i") }
    }
  }

  test("point query via Algorithm 3") {
    val (dir, values) = writeTable("WD", 8000, 1024)
    val (_, groups) = NeaTSFiles.readMeta(dir)
    val blobs = groups.map(g => NeaTSFiles.readGroup(dir, g))
    val rng = new java.util.Random(50)
    (0 until 20).foreach { _ =>
      val i = rng.nextInt(8000)
      val g = groups.indexWhere(_.overlaps(i, i))
      assert(blobs(g)((i - groups(g).start).toInt) === values(i), s"idx $i")
      assert(pairs(load(dir).where($"idx" === i.toLong).collect()) === Seq((i.toLong, values(i))), s"idx $i")
    }
  }

  test("rangeQuery and the DataSource return identical rows") {
    val (dir, values) = writeTable("LAT", 5000, 1024)
    val table = load(dir)
    for ((from, until) <- Seq((0L, 5000L), (1023L, 1025L), (2048L, 2048L), (3000L, 4100L), (4999L, 5000L))) {
      val direct = readRange(dir, from, until)
      val viaTable = pairs(table.where($"idx" >= from && $"idx" < until).orderBy("idx").collect())
      assert(direct === (from until until).map(i => (i, values(i.toInt))), s"[$from, $until)")
      assert(viaTable === direct, s"[$from, $until)")
    }
  }

  test("oracle: range aggregates over decoded data match DuckDB on the raw table") {
    val (dir, values) = writeTable("AP", 6000, 1024)
    val agg = readRange(dir, 0, 6000).toDF("idx", "value")
      .where($"idx" >= 1000 && $"idx" < 4000)
      .agg(
        sum($"value").cast("double").as("total"),
        count($"idx").cast("long").as("cnt"),
        min($"value").cast("long").as("mn"),
        max($"value").cast("long").as("mx"),
      )
    Oracle.assertEquivalent(
      agg,
      """SELECT CAST(SUM(CAST(value AS BIGINT)) AS DOUBLE) AS total,
        |       COUNT(idx) AS cnt,
        |       MIN(CAST(value AS BIGINT)) AS mn,
        |       MAX(CAST(value AS BIGINT)) AS mx
        |FROM ts WHERE CAST(idx AS BIGINT) >= 1000 AND CAST(idx AS BIGINT) < 4000""".stripMargin,
      "ts" -> raw(values),
    )
  }
}

class NeaTSDataSourceSpec extends NeaTSTableSpec {
  import spark.implicits._

  test("full scan equals the original series") {
    val (dir, values) = writeTable("UK", 9000, 2048)
    assert(pairs(load(dir).orderBy("idx").collect()) === indexed(values))
  }

  test("row groups actually compress") {
    val (dir, _) = writeTable("US", 20000, 4096)
    val (_, groups) = NeaTSFiles.readMeta(dir)
    val compressedBytes = groups.map(g => new File(dir, g.file).length).sum
    assert(compressedBytes < 20000L * 8, s"compressed $compressedBytes >= raw ${20000 * 8}")
  }

  test("idx range filters are pushed down and return exact slices") {
    val tables = Seq(
      ("GE", 9000, 1024, Seq((0L, 50L), (1000L, 1030L), (1020L, 5100L), (8990L, 9000L))),
      ("ECG", 12000, 2048, Seq((0L, 100L), (2000L, 2100L), (2040L, 6100L), (11900L, 12000L),
                               (3000L, 3000L), (2048L, 2049L), (4095L, 4096L))),
    )
    for ((name, n, groupSize, ranges) <- tables) {
      val (dir, values) = writeTable(name, n, groupSize)
      val df = load(dir)
      for ((lo, hi) <- ranges;
           (form, filter) <- Seq(">= and <" -> ($"idx" >= lo && $"idx" < hi),
                                 "> and <=" -> ($"idx" > lo - 1 && $"idx" <= hi - 1))) {
        val got = pairs(df.where(filter).orderBy("idx").collect())
        assert(got === (lo until hi).map(i => (i, values(i.toInt))), s"$name [$lo, $hi) as $form")
      }
      // `v + 1` and `v - 1` at the ends of Long must not wrap into "every row".
      for (none <- Seq(sources.GreaterThan("idx", Long.MaxValue), sources.LessThan("idx", Long.MinValue))) {
        val builder = new NeaTSScanBuilder(dir)
        builder.pushFilters(Array(none))
        assert(builder.build().toBatch.planInputPartitions().isEmpty, s"$name $none")
      }
      assert(df.where($"idx" > Long.MaxValue).count() === 0)
      assert(df.where($"idx" < Long.MinValue).count() === 0)
    }
  }

  test("pushdown prunes row groups (scan plan reads fewer partitions)") {
    val (dir, _) = writeTable("DP", 8192, 1024) // 8 groups
    val scanAll = new NeaTSScan(dir, Long.MinValue, Long.MaxValue)
    val scanOne = new NeaTSScan(dir, 2100L, 2500L) // inside group 2 = [2048, 3071]
    assert(scanAll.planInputPartitions().length === 8)
    assert(scanOne.planInputPartitions().length === 1)
    val scanTwo = new NeaTSScan(dir, 1030L, 2500L) // groups 1 and 2
    assert(scanTwo.planInputPartitions().length === 2)
  }

  test("equality filter returns the single row") {
    val (dir, values) = writeTable("CT", 4096, 512)
    assert(pairs(load(dir).where($"idx" === 1234L).collect()) === Seq((1234L, values(1234))))
  }

  test("oracle: SQL aggregates over the NeaTS table match DuckDB on raw values") {
    val (dir, values) = writeTable("DU", 5000, 1000)
    val agg = load(dir).where($"idx" >= 500 && $"idx" < 3500)
      .agg(
        sum($"value").cast("double").as("total"),
        avg($"value").cast("double").as("mean"),
        count(lit(1)).cast("long").as("cnt"),
        count($"idx").cast("long").as("cnt_idx"),
        min($"value").cast("long").as("mn"),
        max($"value").cast("long").as("mx"),
      )
    Oracle.assertEquivalent(
      agg,
      """SELECT CAST(SUM(CAST(value AS BIGINT)) AS DOUBLE) AS total,
        |       CAST(AVG(CAST(value AS BIGINT)) AS DOUBLE) AS mean,
        |       COUNT(*) AS cnt,
        |       COUNT(idx) AS cnt_idx,
        |       MIN(CAST(value AS BIGINT)) AS mn,
        |       MAX(CAST(value AS BIGINT)) AS mx
        |FROM ts WHERE CAST(idx AS BIGINT) >= 500 AND CAST(idx AS BIGINT) < 3500""".stripMargin,
      "ts" -> raw(values),
    )
  }

  test("oracle: grouped aggregation over the NeaTS table matches DuckDB") {
    val (dir, values) = writeTable("BM", 2000, 512)
    val agg = load(dir).groupBy(floor($"idx" / 100).cast("long").as("bucket"))
      .agg(max($"value").cast("long").as("mx"))
    Oracle.assertEquivalent(
      agg,
      """SELECT CAST(FLOOR(CAST(idx AS BIGINT) / 100.0) AS BIGINT) AS bucket,
        |       MAX(CAST(value AS BIGINT)) AS mx
        |FROM ts GROUP BY 1""".stripMargin,
      "ts" -> raw(values),
    )
  }

  test("write rejects a group size below 1 and creates nothing") {
    for (groupSize <- Seq(0, -1)) {
      val dir = new File(tempDir("neats-size"), "table")
      intercept[IllegalArgumentException](NeaTSFiles.write(dir.getPath, Array(1L, 2L, 3L), groupSize))
      assert(!dir.exists(), s"groupSize $groupSize")
    }
  }

  test("a group file that does not hold its index's count fails typed") {
    val (dir, _) = writeTable("LON", 5000, 1024) // four groups of 1,024 values, then one of 904
    val (_, groups) = NeaTSFiles.readMeta(dir)
    val Seq(first, last) = Seq(groups.head, groups.last).map(g => new File(dir, g.file).toPath)
    val (firstBytes, lastBytes) = (Files.readAllBytes(first), Files.readAllBytes(last))
    Files.write(first, lastBytes) // 904 values where the index says 1,024
    Files.write(last, firstBytes) // 1,024 values where the index says 904
    intercept[CorruptBlobException](NeaTSFiles.readGroup(dir, groups.head))
    intercept[CorruptBlobException](NeaTSFiles.readGroup(dir, groups.last))
    for ((lo, hi) <- Seq((0L, 10L), (4990L, 5000L))) {
      val e = intercept[Exception](load(dir).where($"idx" >= lo && $"idx" < hi).collect())
      assert(Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
        .exists(_.isInstanceOf[CorruptBlobException]), s"[$lo, $hi): $e")
    }
  }

  test("a tampered meta index fails typed") {
    val (dir, _) = writeTable("BW", 3000, 1024) // groups [0, 1024), [1024, 2048), [2048, 3000)
    val meta = new File(dir, "meta").toPath
    val Seq(header, g0, g1, g2) = new String(Files.readAllBytes(meta), "UTF-8").linesIterator.toSeq
    val tampered = Seq(
      "empty" -> Seq(),
      "header only" -> Seq(header),
      "short header" -> Seq("3000", g0, g1, g2),
      "non-numeric header" -> Seq("3000 x", g0, g1, g2),
      "short line" -> Seq(header, g0, "1024 1024", g2),
      "non-numeric line" -> Seq(header, g0, "1024 x group-00001.neats", g2),
      "zero count" -> Seq(header, "0 0 group-00000.neats", g0, g1, g2),
      "negative count" -> Seq(header, g0, "1024 -1024 group-00001.neats", g1, g2),
      "duplicated line" -> Seq(header, g0, g0, g1, g2),
      "overlapping line" -> Seq(header, g0, "1000 1048 group-00001.neats", g2),
      "gap" -> Seq(header, g0, g2),
      "out of order" -> Seq(header, g1, g0, g2),
      "groups end before n" -> Seq(header, g0, g1),
      "groups end after n" -> Seq("2999 1024", g0, g1, g2),
    )
    for ((why, lines) <- tampered) {
      Files.write(meta, lines.map(_ + "\n").mkString.getBytes("UTF-8"))
      withClue(why)(intercept[CorruptBlobException](NeaTSFiles.readMeta(dir)))
      withClue(why)(intercept[CorruptBlobException](new NeaTSScan(dir, Long.MinValue, Long.MaxValue)
        .planInputPartitions()))
    }
  }
}
