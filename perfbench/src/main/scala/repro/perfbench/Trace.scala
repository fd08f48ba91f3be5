package repro.perfbench

import scala.collection.mutable

/** Spans of the traced run, kept in primitive arrays and written out when
  * the run ends. A span is one call into a layer: name, start, end, the
  * enclosing span, and the id of the end-to-end operation it belongs to.
  */
final class Trace {
  private val names = mutable.ArrayBuffer[String]()
  private val nameIds = mutable.HashMap[String, Int]()
  private var nameOf = new Array[Int](1024)
  private var starts = new Array[Long](1024)
  private var ends = new Array[Long](1024)
  private var parents = new Array[Int](1024)
  private var ops = new Array[Long](1024)
  private var n = 0
  private var open = -1

  def size: Int = n

  /** Opens a span under the innermost open span and returns its id. */
  def begin(name: String, op: Long): Int = {
    if (n == starts.length) grow()
    nameOf(n) = nameIds.getOrElseUpdate(name, { names += name; names.length - 1 })
    parents(n) = open
    ops(n) = op
    ends(n) = -1L
    open = n
    n += 1
    starts(n - 1) = System.nanoTime()
    n - 1
  }

  def end(id: Int): Unit = {
    ends(id) = System.nanoTime()
    open = parents(id)
  }

  def span[A](name: String, op: Long)(body: => A): A = {
    val id = begin(name, op)
    try body finally end(id)
  }

  private def grow(): Unit = {
    val cap = starts.length * 2
    nameOf = java.util.Arrays.copyOf(nameOf, cap)
    starts = java.util.Arrays.copyOf(starts, cap)
    ends = java.util.Arrays.copyOf(ends, cap)
    parents = java.util.Arrays.copyOf(parents, cap)
    ops = java.util.Arrays.copyOf(ops, cap)
  }

  private def duration(i: Int): Long = ends(i) - starts(i)

  /** Self time (ns) per span name: duration minus the time its child spans
    * cover, over the spans with ids in [from, until), a stretch of whole
    * top-level spans.
    */
  def selfTimes(from: Int = 0, until: Int = n): Map[String, Long] = {
    val child = new Array[Long](n)
    var i = from
    while (i < until) {
      if (parents(i) >= from) child(parents(i)) += duration(i)
      i += 1
    }
    val acc = mutable.HashMap[String, Long]()
    i = from
    while (i < until) {
      val k = names(nameOf(i))
      acc(k) = acc.getOrElse(k, 0L) + duration(i) - child(i)
      i += 1
    }
    acc.toMap
  }

  /** Writes one tab-separated line per span: id, name, start, end, parent, op. */
  def write(file: java.io.File): Unit = {
    file.getParentFile.mkdirs()
    val out = new java.io.PrintWriter(new java.io.BufferedWriter(new java.io.FileWriter(file)))
    try {
      out.println("id\tname\tstart_ns\tend_ns\tparent\top")
      var i = 0
      while (i < n) {
        out.println(s"$i\t${names(nameOf(i))}\t${starts(i)}\t${ends(i)}\t${parents(i)}\t${ops(i)}")
        i += 1
      }
    } finally out.close()
  }
}
