package repro.core.bits;

import java.lang.invoke.MethodHandles;
import java.lang.invoke.VarHandle;
import java.nio.ByteOrder;

/** The one load and store of a little-endian 64-bit word in a byte array.
  *
  * Java, not Scala: C2 folds a VarHandle into a plain load only when it is a
  * constant, a {@code static final} field, and Scala 2.13 has no static
  * fields (an {@code object}'s {@code val} is an instance field of its
  * module). Held in an {@code object}, one 7-bit extract took about three
  * times as long.
  */
final class LittleEndian {
  private LittleEndian() {}

  private static final VarHandle LONGS =
      MethodHandles.byteArrayViewVarHandle(long[].class, ByteOrder.LITTLE_ENDIAN);

  /** The word of bytes [at, at + 8). */
  static long get(byte[] bytes, int at) {
    return (long) LONGS.get(bytes, at);
  }

  /** Writes {@code v} to bytes [at, at + 8). */
  static void set(byte[] bytes, int at, long v) {
    LONGS.set(bytes, at, v);
  }
}
