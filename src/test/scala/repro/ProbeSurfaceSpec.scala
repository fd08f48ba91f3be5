package repro

import java.lang.{Boolean => JBool, Integer => JInt, Long => JLong}

/** The names that the per-layer probes of `perfbench/` reach by reflection,
  * with their JVM parameter and return types. The probes leave a layer out
  * of a traced run when one of these stops resolving; here a rename or a
  * changed signature fails instead.
  */
class ProbeSurfaceSpec extends SparkSpec {
  private val (longs, ints, long, int, bool) =
    (classOf[Array[Long]], classOf[Array[Int]], JLong.TYPE, JInt.TYPE, JBool.TYPE)

  private def cls(name: String): Class[_] = Class.forName(name)

  /** The class of a Scala `object`, whose singleton the probes call. */
  private def module(name: String): Class[_] = cls(name + "$")

  private val layout = cls("repro.core.neats.NeaTSCompressed")
  private val kind = cls("repro.core.approx.FunctionKind")
  private val region = cls("repro.core.approx.FeasibleRegion")
  private val group = cls("repro.sparkts.NeaTSFiles$Group")

  /** (class, method, parameter types, return type) */
  private val methods: Seq[(Class[_], String, Seq[Class[_]], Class[_])] = Seq(
    (module("repro.core.neats.NeaTS"), "epsGrid", Seq(longs), classOf[Seq[_]]),
    (module("repro.core.neats.NeaTS"), "shiftFor", Seq(longs, long), long),
    (module("repro.core.neats.NeaTS"), "repair", Seq(longs, long, classOf[Vector[_]], bool), classOf[Vector[_]]),
    (module("repro.core.neats.NeaTS"), "defaultKinds", Seq(), classOf[Vector[_]]),
    (module("repro.core.neats.Partitioner"), "lossless", Seq(longs, long, classOf[Seq[_]], classOf[Seq[_]]),
      classOf[Vector[_]]),
    (module("repro.core.neats.NeaTSCompressed"), "build", Seq(longs, long, classOf[Vector[_]]), layout),
    (module("repro.core.approx.ConvexFit"), "longestFragment", Seq(longs, long, int, kind, long, region),
      cls("repro.core.approx.Fit")),
    (cls("repro.core.approx.Fit"), "end", Seq(), int),
    (module("repro.core.approx.FunctionKind"), "byId", Seq(int), kind),
    (kind, "nParams", Seq(), int),
    (module("repro.core.bits.EliasFano"), "apply", Seq(longs), cls("repro.core.bits.EliasFano")),
    (module("repro.core.bits.FixedWidthArray"), "apply", Seq(longs, int), cls("repro.core.bits.FixedWidthArray")),
    (module("repro.core.bits.WaveletTree"), "apply", Seq(ints, int), cls("repro.core.bits.WaveletTree")),
    (module("repro.sparkts.NeaTSFiles"), "readMeta", Seq(classOf[String]), classOf[(_, _)]),
    (module("repro.sparkts.NeaTSFiles"), "readGroup", Seq(classOf[String], group), layout),
    (group, "start", Seq(), long),
    (group, "count", Seq(), int),
  )

  /** (layout field, method, parameter types, return type), looked up on the
    * field's class as the probes do.
    */
  private val fieldMethods: Seq[(String, String, Seq[Class[_]], Class[_])] =
    Seq("s", "o").flatMap(f => Seq((f, "rank", Seq(long), int), (f, "apply", Seq(int), long))) ++
      Seq(("b", "apply", Seq(int), long), ("k", "apply", Seq(int), int), ("k", "rank", Seq(int, int), int),
          ("c", "getSigned", Seq(long, int), long), ("c", "lengthInBits", Seq(), long)) ++
      Seq("s", "o", "b", "k").map(f => (f, "sizeInBits", Seq(), long)) ++
      Seq("s", "o", "b").map(f => (f, "toArray", Seq(), longs)) :+ (("k", "toArray", Seq(), ints))

  private def show(params: Seq[Class[_]]) = params.map(_.getSimpleName).mkString("(", ", ", ")")

  private def check(owner: Class[_], name: String, params: Seq[Class[_]], returns: Class[_]): Unit = {
    val m = try owner.getMethod(name, params: _*)
      catch { case _: NoSuchMethodException => fail(s"${owner.getName}.$name${show(params)} is gone") }
    assert(m.getReturnType === returns, s"${owner.getName}.$name${show(params)}")
  }

  for ((owner, name, params, returns) <- methods)
    test(s"${owner.getSimpleName}.$name${show(params)}: ${returns.getSimpleName}") {
      check(owner, name, params, returns)
    }

  test("the layout has the fields s, b, o, c, k and p") {
    for (f <- Seq("s", "b", "o", "c", "k")) layout.getMethod(f)
    check(layout, "p", Seq(), classOf[Array[Array[Double]]])
  }

  for ((field, name, params, returns) <- fieldMethods)
    test(s"$field.$name${show(params)}: ${returns.getSimpleName}") {
      check(layout.getMethod(field).getReturnType, name, params, returns)
    }

  test("FeasibleRegion has a public no-argument constructor") {
    region.getConstructor()
  }

  test("NeaTSScan has a public (String, long, long) constructor") {
    cls("repro.sparkts.NeaTSScan").getConstructor(classOf[String], long, long)
  }
}
