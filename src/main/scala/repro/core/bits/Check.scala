package repro.core.bits

/** `require` for the read path, with the message built only on failure:
  * `Predef.require`'s by-name message is a closure, allocated on every call
  * wherever the JIT does not inline the check away.
  */
private[repro] object Check {
  def fail(message: String): Nothing = throw new IllegalArgumentException(s"requirement failed: $message")
}
