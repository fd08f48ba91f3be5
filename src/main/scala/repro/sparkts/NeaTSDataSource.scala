package repro.sparkts

import java.util
import org.apache.spark.sql.connector.catalog.{SupportsRead, Table, TableCapability, TableProvider}
import org.apache.spark.sql.connector.expressions.Transform
import org.apache.spark.sql.connector.read._
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.sources
import org.apache.spark.sql.types._
import org.apache.spark.sql.util.CaseInsensitiveStringMap
import repro.core.neats.{CorruptBlobException, NeaTS, NeaTSCompressed}

/** File layout of a NeaTS-compressed table: a directory with one blob file
  * per row group plus a `meta` index (group start, count, file name) — the
  * moral equivalent of Parquet row groups with a footer. Each row group is
  * encoded on its own, by [[write]].
  */
object NeaTSFiles {

  /** One row group: the `count` rows of the series from index `start`, in one blob. */
  final case class Group(start: Long, count: Int, file: String) {

    /** Offsets [from, until) into this group of the rows whose index lies in
      * the inclusive range [lo, hi]; from == until when there are none.
      */
    private def slice(lo: Long, hi: Long): (Int, Int) = {
      val first = math.max(lo, start)
      val last = math.min(hi, start + count - 1)
      if (first > last) (0, 0) else ((first - start).toInt, (last - start).toInt + 1)
    }

    def overlaps(lo: Long, hi: Long): Boolean = { val (from, until) = slice(lo, hi); from < until }

    /** The index of the first row in [lo, hi] and the values of those rows,
      * decoded from the table at `path` by one `range` (one rank, then
      * sequential decoding).
      */
    def read(path: String, lo: Long, hi: Long): (Long, Array[Long]) = {
      val (from, until) = slice(lo, hi)
      (start + from, readGroup(path, this).range(from, until - from))
    }
  }

  def write(path: String, values: Array[Long], groupSize: Int = 8192): Unit = {
    require(groupSize > 0, s"groupSize must be positive, got $groupSize")
    val dir = new java.io.File(path)
    dir.mkdirs()
    val meta = new StringBuilder
    meta.append(s"${values.length} $groupSize\n")
    var g = 0
    var start = 0
    while (start < values.length) {
      val count = math.min(groupSize, values.length - start)
      val blob = NeaTS.compress(java.util.Arrays.copyOfRange(values, start, start + count)).toBytes
      val name = f"group-$g%05d.neats"
      java.nio.file.Files.write(new java.io.File(dir, name).toPath, blob)
      meta.append(s"$start $count $name\n")
      start += count
      g += 1
    }
    java.nio.file.Files.write(new java.io.File(dir, "meta").toPath,
      meta.toString.getBytes("UTF-8"))
  }

  /** The series length and the row groups of the table at `path`. The index
    * must be a header `n groupSize` and then one `start count file` line per
    * group, with positive counts, whose groups tile [0, n) in order;
    * anything else is a [[CorruptBlobException]].
    */
  def readMeta(path: String): (Long, Seq[Group]) = {
    val lines = new String(java.nio.file.Files.readAllBytes(
      new java.io.File(path, "meta").toPath), "UTF-8").linesIterator.toSeq
    def corrupt(why: String) = throw new CorruptBlobException(s"$path/meta: $why")
    def fields(line: String, arity: Int): Array[String] = {
      val parts = line.split(" ")
      if (parts.length != arity || parts.take(2).exists(f => f.toLongOption.isEmpty))
        corrupt(s"expected $arity fields, the first two numbers: '$line'")
      parts
    }
    if (lines.isEmpty) corrupt("empty index")
    val n = fields(lines.head, 2)(0).toLong
    var end = 0L
    val groups = lines.tail.map { l =>
      val Array(start, count, file) = fields(l, 3)
      val g = Group(start.toLong, count.toIntOption.getOrElse(0), file)
      if (g.count <= 0) corrupt(s"group count must be a positive int: '$l'")
      if (g.start != end) corrupt(s"group starts at ${g.start}, the previous one ends at $end: '$l'")
      end = g.start + g.count
      g
    }
    if (end != n) corrupt(s"groups cover [0, $end) of a series of $n values")
    (n, groups)
  }

  /** The blob of group `g`; it must hold exactly `g.count` values. */
  def readGroup(path: String, g: Group): NeaTSCompressed = {
    val blob = NeaTSCompressed.fromBytes(java.nio.file.Files.readAllBytes(
      new java.io.File(path, g.file).toPath))
    if (blob.n != g.count)
      throw new CorruptBlobException(s"$path/${g.file} holds ${blob.n} values, the index says ${g.count}")
    blob
  }
}

/** DataSourceV2 provider: `spark.read.format("repro.sparkts.NeaTSDataSource")
  * .option("path", dir).load()` exposes (idx: Long, value: Long) with `idx`
  * range filters pushed down to row-group pruning + in-group random access.
  */
class NeaTSDataSource extends TableProvider {
  override def inferSchema(options: CaseInsensitiveStringMap): StructType = NeaTSDataSource.schema

  override def getTable(schema: StructType, partitioning: Array[Transform],
                        properties: util.Map[String, String]): Table = {
    val path = properties.get("path")
    require(path != null, "option 'path' is required for the neats data source")
    new NeaTSTable(path)
  }
}

object NeaTSDataSource {
  val schema: StructType = StructType(Seq(
    StructField("idx", LongType, nullable = false),
    StructField("value", LongType, nullable = false),
  ))
  val format: String = classOf[NeaTSDataSource].getName
}

class NeaTSTable(path: String) extends Table with SupportsRead {
  override def name(): String = s"neats:$path"
  override def schema(): StructType = NeaTSDataSource.schema
  override def capabilities(): util.Set[TableCapability] =
    util.EnumSet.of(TableCapability.BATCH_READ)
  override def newScanBuilder(options: CaseInsensitiveStringMap): ScanBuilder =
    new NeaTSScanBuilder(path)
}

/** Pushes idx range predicates (>=, >, <=, <, =) down to row-group pruning. */
class NeaTSScanBuilder(path: String) extends ScanBuilder with SupportsPushDownFilters {
  private var lo: Long = Long.MinValue
  private var hi: Long = Long.MaxValue // inclusive; the scan is empty when lo > hi
  private var pushed: Array[sources.Filter] = Array.empty

  private def matchNothing(): Unit = { lo = Long.MaxValue; hi = Long.MinValue }

  /** Narrows [lo, hi] by an idx bound; false, with no change, for any other
    * filter.
    */
  private def narrow(filter: sources.Filter): Boolean = {
    filter match {
      case sources.GreaterThan("idx", v: Long) =>
        if (v == Long.MaxValue) matchNothing() else lo = math.max(lo, v + 1)
      case sources.GreaterThanOrEqual("idx", v: Long) => lo = math.max(lo, v)
      case sources.LessThan("idx", v: Long) =>
        if (v == Long.MinValue) matchNothing() else hi = math.min(hi, v - 1)
      case sources.LessThanOrEqual("idx", v: Long) => hi = math.min(hi, v)
      case sources.EqualTo("idx", v: Long) => lo = math.max(lo, v); hi = math.min(hi, v)
      case _ => return false
    }
    true
  }

  override def pushFilters(filters: Array[sources.Filter]): Array[sources.Filter] = {
    val (accepted, rejected) = filters.partition(narrow)
    pushed = accepted
    rejected // Spark re-evaluates nothing for accepted ones; rejected stay post-scan
  }

  override def pushedFilters(): Array[sources.Filter] = pushed

  override def build(): Scan = new NeaTSScan(path, lo, hi)
}

class NeaTSScan(path: String, lo: Long, hi: Long) extends Scan with Batch {
  override def readSchema(): StructType = NeaTSDataSource.schema
  override def toBatch: Batch = this

  override def planInputPartitions(): Array[InputPartition] = {
    val (_, groups) = NeaTSFiles.readMeta(path)
    groups
      .filter(_.overlaps(lo, hi))
      .map(g => NeaTSInputPartition(path, g, lo, hi): InputPartition)
      .toArray
  }

  override def createReaderFactory(): PartitionReaderFactory = new NeaTSReaderFactory
}

final case class NeaTSInputPartition(path: String, group: NeaTSFiles.Group,
                                     lo: Long, hi: Long) extends InputPartition

class NeaTSReaderFactory extends PartitionReaderFactory {
  override def createReader(partition: InputPartition): PartitionReader[InternalRow] = {
    val p = partition.asInstanceOf[NeaTSInputPartition]
    new NeaTSPartitionReader(p)
  }
}

/** Decodes one row group, restricted to the pushed [lo, hi] index range,
  * through [[NeaTSFiles.Group.read]].
  */
class NeaTSPartitionReader(p: NeaTSInputPartition) extends PartitionReader[InternalRow] {
  private val (first, values) = p.group.read(p.path, p.lo, p.hi)
  private var i = -1

  override def next(): Boolean = { i += 1; i < values.length }
  override def get(): InternalRow = InternalRow(first + i, values(i))
  override def close(): Unit = ()
}
