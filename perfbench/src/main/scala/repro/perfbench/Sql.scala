package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, count, lit, sum}

/** SQL over a `NeaTSFiles` table through the DataSourceV2 format string,
  * with `idx` predicates pushed down. Sums and counts are checked against
  * prefix sums of the raw values.
  */
final class Sql(spark: SparkSession, val path: String, values: Array[Long], report: Report) {
  private val prefix = values.scanLeft(0L)(_ + _)
  val n: Int = values.length

  /** Rows a range query covers: a few row groups. */
  val rangeRows: Int = math.min(n, 2 * Inputs.GroupRows)

  private def table: DataFrame =
    spark.read.format("repro.sparkts.NeaTSDataSource").option("path", path).load()

  def point(i: Int): Boolean = report.check {
    val rows = table.filter(col("idx") === lit(i.toLong)).select("value").collect()
    rows.length == 1 && rows(0).getLong(0) == values(i)
  }

  /** `sum` and `count` over idx in [lo, lo + len). */
  def range(lo: Int, len: Int): Boolean = report.check {
    val r = table.filter(col("idx") >= lit(lo.toLong) && col("idx") < lit(lo.toLong + len))
      .agg(sum("value"), count(lit(1))).collect()(0)
    r.getLong(0) == prefix(lo + len) - prefix(lo) && r.getLong(1) == len
  }

  def full(): Boolean = report.check {
    val r = table.agg(sum("value"), count(lit(1))).collect()(0)
    r.getLong(0) == prefix(n) && r.getLong(1) == n
  }
}

object Sql {

  /** Spark master: a fixed two task threads, leaving the driver thread and
    * the JIT a core each on a 4-vCPU host.
    */
  val Master = "local[2]"

  def session(work: java.io.File): SparkSession = {
    val s = SparkSession.builder()
      .master(Master)
      .appName("neats-perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new java.io.File(work, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new java.io.File(work, "warehouse").getPath)
      .config("spark.sql.shuffle.partitions", "2")
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  sealed trait Query
  final case class Point(i: Int) extends Query
  final case class Range(lo: Int, len: Int) extends Query
  case object Full extends Query

  def run(sql: Sql, q: Query): Boolean = q match {
    case Point(i) => sql.point(i)
    case Range(lo, len) => sql.range(lo, len)
    case Full => sql.full()
  }
}
