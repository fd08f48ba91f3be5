package repro.sparkts

import repro.core.neats.NeaTSCompressed

/** One row group: the `count` rows of a series from index `start`, stored as
  * one NeaTS blob. Every Spark read — [[NeaTSCodec]] over a DataFrame of blobs
  * and [[NeaTSPartitionReader]] over a [[NeaTSFiles]] table — maps its index
  * range onto a group here.
  */
final case class RowGroup(start: Long, count: Int) {

  /** The rows whose index lies in the inclusive range [lo, hi], as offsets
    * [from, until) into this group; from == until when there are none.
    */
  def slice(lo: Long, hi: Long): (Int, Int) = {
    val first = math.max(lo, start)
    val last = math.min(hi, start + count - 1)
    if (first > last) (0, 0) else ((first - start).toInt, (last - start).toInt + 1)
  }

  def overlaps(lo: Long, hi: Long): Boolean = {
    val (from, until) = slice(lo, hi)
    from < until
  }

  /** The index of the first row in [lo, hi] and the values of those rows,
    * decoded by one `range` (one rank, then sequential decoding). `group` is
    * loaded only when some row overlaps.
    */
  def read(group: => NeaTSCompressed, lo: Long, hi: Long): (Long, Array[Long]) = {
    val (from, until) = slice(lo, hi)
    (start + from, if (from == until) Array.emptyLongArray else group.range(from, until - from))
  }
}
