package repro.perfbench

import java.lang.invoke.{LambdaMetafactory, MethodHandles, MethodType}
import java.lang.reflect.{InvocationTargetException, Method, Modifier}

/** Run-time lookup of layer internals for the per-layer probes.
  *
  * The end-to-end path calls only the program's stable entry points. Probes
  * reach into layout fields, `NeaTS.repair` and the like by name at run time,
  * so a change that renames or removes one of them makes that layer absent
  * instead of breaking the benchmark's build. Every lookup happens when a
  * probe binds, before it measures (see [[bound]]): only a lookup can make a
  * layer absent, and an exception the program throws while a probe measures
  * is a failed operation.
  */
object Reflect {

  /** Thrown when a probe target is missing. */
  final class Absent(what: String) extends RuntimeException(what)

  /** Runs a probe's binding step. A missing target, or one whose type
    * changed, gives `Left`; an exception the program throws is rethrown.
    */
  def bound[B](bind: => B): Either[Throwable, B] =
    try Right(bind)
    catch {
      case e: InvocationTargetException => throw e.getCause
      case e @ (_: Absent | _: ReflectiveOperationException | _: ClassCastException) => Left(e)
    }

  /** A public method, looked up by name and parameter types. */
  final class Fn(m: Method) {
    /** Calls it on `target` (a module or an instance); an exception the
      * program throws comes out unwrapped.
      */
    def apply(target: AnyRef, args: AnyRef*): AnyRef =
      try m.invoke(target, args: _*)
      catch { case e: InvocationTargetException => throw e.getCause }
  }

  def fn(cls: Class[_], name: String, params: Class[_]*): Fn =
    try new Fn(cls.getMethod(name, params: _*))
    catch { case _: NoSuchMethodException => throw new Absent(s"${cls.getName}.$name") }

  /** The singleton instance of a Scala `object`. */
  def module(className: String): AnyRef =
    try Class.forName(className + "$").getField("MODULE$").get(null)
    catch { case _: ReflectiveOperationException => throw new Absent(className) }

  def long(v: AnyRef): Long = v.asInstanceOf[java.lang.Number].longValue

  /** Binds an instance method of `cls` to a functional interface whose
    * single abstract method takes the receiver as its first (Object)
    * argument. One generated class per bound method keeps each probe's call
    * site monomorphic, so the JIT inlines it as it would a direct call.
    */
  def bind[I](cls: Class[_], name: String, iface: Class[I], params: Class[_]*): I =
    try {
      val lookup = MethodHandles.lookup()
      val impl = lookup.unreflect(cls.getMethod(name, params: _*))
      val sam = iface.getMethods.find(m => Modifier.isAbstract(m.getModifiers)).get
      val samType = MethodType.methodType(sam.getReturnType, sam.getParameterTypes)
      val site = LambdaMetafactory.metafactory(lookup, sam.getName,
        MethodType.methodType(iface), samType, impl, impl.`type`())
      site.getTarget.invokeWithArguments().asInstanceOf[I]
    } catch {
      case _: ReflectiveOperationException | _: java.lang.invoke.LambdaConversionException =>
        throw new Absent(s"${cls.getName}.$name")
    }
}

trait ObjLongToInt { def apply(o: AnyRef, v: Long): Int }
trait ObjIntToLong { def apply(o: AnyRef, i: Int): Long }
trait ObjIntToInt { def apply(o: AnyRef, i: Int): Int }
trait ObjIntIntToInt { def apply(o: AnyRef, a: Int, b: Int): Int }
trait ObjLongIntToLong { def apply(o: AnyRef, pos: Long, width: Int): Long }
