package repro.sparkts

import org.apache.spark.sql.functions._
import org.apache.spark.sql.sources
import repro.{Oracle, SparkSpec}
import repro.data.TimeSeries

class NeaTSCodecSpec extends SparkSpec {
  import spark.implicits._

  private def tsDF(name: String, n: Int) = {
    val ds = TimeSeries.dataset(name, n)
    ds.longs.zipWithIndex.map { case (v, i) => (i.toLong, v) }.toSeq.toDF("idx", "value")
  }

  test("encode/decode roundtrip through Spark row groups") {
    val df = tsDF("IT", 10000)
    val enc = NeaTSCodec.encode(df, groupSize = 2048)
    val dec = NeaTSCodec.decode(enc)
    assert(dec.count() === 10000)
    val orig = df.orderBy("idx").collect().map(r => (r.getLong(0), r.getLong(1)))
    val back = dec.orderBy("idx").collect().map(r => (r.getLong(0), r.getLong(1)))
    assert(back.toSeq === orig.toSeq)
  }

  test("row groups actually compress") {
    val df = tsDF("US", 20000)
    val enc = NeaTSCodec.encode(df, groupSize = 4096)
    val compressedBytes = enc.select(sum(length($"blob"))).as[Long].head()
    assert(compressedBytes < 20000L * 8, s"compressed $compressedBytes >= raw ${20000 * 8}")
  }

  test("range query decodes only the overlapping slice, matches full decode") {
    val df = tsDF("ECG", 12000)
    val enc = NeaTSCodec.encode(df, groupSize = 2048).cache()
    val full = NeaTSCodec.decode(enc).orderBy("idx").collect().map(_.getLong(1))
    for ((from, until) <- Seq((0L, 100L), (2000L, 2100L), (2040L, 6100L), (11900L, 12000L),
                              (3000L, 3000L), (2048L, 2049L), (4095L, 4096L))) {
      val got = NeaTSCodec.rangeQuery(enc, from, until).orderBy("idx").collect()
      assert(got.length === (until - from).toInt)
      got.foreach { r =>
        assert(r.getLong(1) === full(r.getLong(0).toInt), s"at ${r.getLong(0)}")
      }
    }
    enc.unpersist()
  }

  test("point query via Algorithm 3") {
    val df = tsDF("WD", 8000)
    val enc = NeaTSCodec.encode(df, groupSize = 1024).cache()
    val full = NeaTSCodec.decode(enc).orderBy("idx").collect().map(_.getLong(1))
    val rng = new java.util.Random(50)
    (0 until 20).foreach { _ =>
      val i = rng.nextInt(8000)
      assert(NeaTSCodec.pointQuery(enc, i.toLong) === Some(full(i)))
    }
    enc.unpersist()
  }

  test("rangeQuery and the DataSource return identical rows") {
    val ds = TimeSeries.dataset("LAT", 5000)
    val dir = java.nio.file.Files.createTempDirectory("neats-LAT").toString
    NeaTSFiles.write(dir, ds.longs, 1024)
    val table = spark.read.format(NeaTSDataSource.format).option("path", dir).load()
    val enc = NeaTSCodec.encode(tsDF("LAT", 5000), groupSize = 1024).cache()
    for ((from, until) <- Seq((0L, 5000L), (1023L, 1025L), (2048L, 2048L), (3000L, 4100L), (4999L, 5000L))) {
      val viaCodec = NeaTSCodec.rangeQuery(enc, from, until).orderBy("idx").collect().toSeq
      val viaTable = table.where($"idx" >= from && $"idx" < until).orderBy("idx").collect().toSeq
      assert(viaCodec.length === (until - from).toInt, s"[$from, $until)")
      assert(viaCodec === viaTable, s"[$from, $until)")
    }
    enc.unpersist()
  }

  test("oracle: range aggregates over decoded data match DuckDB on the raw table") {
    val df = tsDF("AP", 6000).cache()
    val enc = NeaTSCodec.encode(df, groupSize = 1024)
    val dec = NeaTSCodec.decode(enc)
    val agg = dec.where($"idx" >= 1000 && $"idx" < 4000)
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
      "ts" -> df,
    )
    df.unpersist()
  }
}

class NeaTSDataSourceSpec extends SparkSpec {
  import spark.implicits._

  private def writeTable(name: String, n: Int, groupSize: Int): (String, Array[Long]) = {
    val ds = TimeSeries.dataset(name, n)
    val dir = java.nio.file.Files.createTempDirectory(s"neats-$name").toString
    NeaTSFiles.write(dir, ds.longs, groupSize)
    (dir, ds.longs)
  }

  test("full scan equals the original series") {
    val (dir, values) = writeTable("UK", 9000, 2048)
    val df = spark.read.format(NeaTSDataSource.format).option("path", dir).load()
    val got = df.orderBy("idx").collect().map(_.getLong(1))
    assert(got.toSeq === values.toSeq)
  }

  test("idx range filters are pushed down and return exact slices") {
    val (dir, values) = writeTable("GE", 9000, 1024)
    val df = spark.read.format(NeaTSDataSource.format).option("path", dir).load()
    for ((lo, hi) <- Seq((0L, 50L), (1000L, 1030L), (1020L, 5100L), (8990L, 9000L))) {
      val got = df.where($"idx" >= lo && $"idx" < hi).orderBy("idx").collect()
      assert(got.length === (hi - lo).toInt, s"[$lo, $hi)")
      got.zipWithIndex.foreach { case (r, j) =>
        assert(r.getLong(0) === lo + j)
        assert(r.getLong(1) === values((lo + j).toInt))
      }
    }
    // `v + 1` and `v - 1` at the ends of Long must not wrap into "every row".
    for (none <- Seq(sources.GreaterThan("idx", Long.MaxValue), sources.LessThan("idx", Long.MinValue))) {
      val builder = new NeaTSScanBuilder(dir)
      builder.pushFilters(Array(none))
      assert(builder.build().toBatch.planInputPartitions().isEmpty, s"$none")
    }
    assert(df.where($"idx" > Long.MaxValue).count() === 0)
    assert(df.where($"idx" < Long.MinValue).count() === 0)
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
    val df = spark.read.format(NeaTSDataSource.format).option("path", dir).load()
    val row = df.where($"idx" === 1234L).collect()
    assert(row.length === 1)
    assert(row(0).getLong(1) === values(1234))
  }

  test("oracle: SQL aggregates over the NeaTS table match DuckDB on raw values") {
    val (dir, values) = writeTable("DU", 5000, 1000)
    val df = spark.read.format(NeaTSDataSource.format).option("path", dir).load()
    val raw = values.zipWithIndex.map { case (v, i) => (i.toLong, v) }.toSeq.toDF("idx", "value")
    val agg = df.where($"idx" >= 500 && $"idx" < 3500)
      .agg(
        sum($"value").cast("double").as("total"),
        avg($"value").cast("double").as("mean"),
        count(lit(1)).cast("long").as("cnt"),
      )
    Oracle.assertEquivalent(
      agg,
      """SELECT CAST(SUM(CAST(value AS BIGINT)) AS DOUBLE) AS total,
        |       CAST(AVG(CAST(value AS BIGINT)) AS DOUBLE) AS mean,
        |       COUNT(*) AS cnt
        |FROM ts WHERE CAST(idx AS BIGINT) >= 500 AND CAST(idx AS BIGINT) < 3500""".stripMargin,
      "ts" -> raw,
    )
  }

  test("oracle: grouped aggregation over the NeaTS table matches DuckDB") {
    val (dir, values) = writeTable("BM", 2000, 512)
    val df = spark.read.format(NeaTSDataSource.format).option("path", dir).load()
    val raw = values.zipWithIndex.map { case (v, i) => (i.toLong, v) }.toSeq.toDF("idx", "value")
    val agg = df.groupBy(floor($"idx" / 100).cast("long").as("bucket"))
      .agg(max($"value").cast("long").as("mx"))
    Oracle.assertEquivalent(
      agg,
      """SELECT CAST(FLOOR(CAST(idx AS BIGINT) / 100.0) AS BIGINT) AS bucket,
        |       MAX(CAST(value AS BIGINT)) AS mx
        |FROM ts GROUP BY 1""".stripMargin,
      "ts" -> raw,
    )
  }
}
