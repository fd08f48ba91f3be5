package repro.perfbench

import scala.collection.mutable

/** Metrics of one run, printed as the last line of standard output. */
final class Report {
  private val metrics = mutable.LinkedHashMap[String, (Double, String)]()
  var attempted = 0L
  var failed = 0L

  def put(name: String, value: Double, unit: String): Unit = metrics(name) = (value, unit)

  /** Runs one checked operation: an exception or a `false` result is a failure. */
  def check(what: => Boolean): Boolean = {
    attempted += 1
    val ok = try what catch { case _: Exception => false }
    if (!ok) failed += 1
    ok
  }

  def failPct: Double = if (attempted == 0) 0.0 else 100.0 * failed / attempted

  def json: String = {
    def num(v: Double): String =
      if (v.isNaN || v.isInfinite) "0" else java.math.BigDecimal.valueOf(v).toPlainString
    val ms = metrics.map { case (k, (v, u)) => s""""$k": {"value": ${num(v)}, "unit": "$u"}""" }
    s"""{"correct": ${failed == 0 && attempted > 0}, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }

  def table: String =
    metrics.map { case (k, (v, u)) => f"  $k%-28s $v%14.4f $u" }.mkString("\n")
}
