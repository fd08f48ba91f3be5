package repro.sparkts

import org.apache.spark.sql.DataFrame
import repro.core.neats.{NeaTS, NeaTSCompressed}

/** NeaTS as a per-partition (row-group) columnar encoder on Spark, analogous
  * to a Parquet page encoding: rows (idx, value) are grouped into fixed-size
  * row groups, each compressed into one NeaTS blob; decoding, range and
  * point queries decode only the groups that overlap the requested index
  * range, each through [[RowGroup.read]].
  *
  * Indexes must be dense (0..n-1) — the paper's setting where timestamps are
  * mapped to consecutive integers (§III-C, footnote 5).
  */
object NeaTSCodec {

  /** Compress a (idx: Long, value: Long) DataFrame into row groups.
    * Output schema: (group_start: Long, count: Int, blob: Binary).
    */
  def encode(df: DataFrame, groupSize: Int = 8192): DataFrame = {
    val spark = df.sparkSession
    import spark.implicits._
    df.selectExpr("CAST(idx AS LONG) AS idx", "CAST(value AS LONG) AS value")
      .as[(Long, Long)]
      .groupByKey(_._1 / groupSize)
      .mapGroups { (g, it) =>
        val arr = it.toArray.sortBy(_._1)
        val start = g * groupSize
        require(arr.head._1 == start && arr.last._1 == start + arr.length - 1,
          s"row group $g is not dense: [${arr.head._1}, ${arr.last._1}] with ${arr.length} rows")
        val blob = NeaTS.compress(arr.map(_._2)).toBytes
        (start, arr.length, blob)
      }
      .toDF("group_start", "count", "blob")
  }

  /** Full decode back to (idx, value). */
  def decode(encoded: DataFrame): DataFrame = rows(encoded, Long.MinValue, Long.MaxValue)

  /** Range query [from, until): decodes only the overlapping slice of each
    * overlapping group. An empty range maps to the empty [0, -1], so that
    * `until - 1` cannot wrap.
    */
  def rangeQuery(encoded: DataFrame, from: Long, until: Long): DataFrame =
    if (until > from) rows(encoded, from, until - 1) else rows(encoded, 0L, -1L)

  /** Point lookup: a one-row range inside the covering group, i.e. one rank
    * and one decoded value (Algorithm 3).
    */
  def pointQuery(encoded: DataFrame, idx: Long): Option[Long] = {
    val spark = encoded.sparkSession
    import spark.implicits._
    rows(encoded, idx, idx).select($"value".as[Long]).collect().headOption
  }

  /** The rows (idx, value) with idx in the inclusive range [lo, hi]; blobs
    * of groups outside it are not decoded.
    */
  private def rows(encoded: DataFrame, lo: Long, hi: Long): DataFrame = {
    val spark = encoded.sparkSession
    import spark.implicits._
    encoded.select($"group_start".as[Long], $"count".as[Int], $"blob".as[Array[Byte]])
      .flatMap { case (start, count, blob) =>
        val (first, values) = RowGroup(start, count).read(NeaTSCompressed.fromBytes(blob), lo, hi)
        Iterator.tabulate(values.length)(i => (first + i, values(i)))
      }
      .toDF("idx", "value")
  }
}
