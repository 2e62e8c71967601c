package repro.core

/** Consumer of k-cliques produced by a kernel.
  *
  * Kernels ask `wantsCliques` before a base case: when false they may replace
  * enumeration with arithmetic (`onCount`), e.g. one total of |E(g)| over
  * all l = 2 children of a branch, or a binomial inside an early-terminated
  * plex. When true every clique is materialized through `onClique`.
  */
trait CliqueSink {
  def wantsCliques: Boolean

  /** One clique: the first `len` entries of `stack` (unsorted, not retained). */
  def onClique(stack: Array[Int], len: Int): Unit

  /** `c` cliques that the kernel counted without materializing. */
  def onCount(c: Long): Unit
}

/** Pure counting sink — lets kernels take every arithmetic shortcut. The
  * total is exact: a count past Long.MaxValue throws ArithmeticException
  * instead of wrapping.
  */
final class CountingSink extends CliqueSink {
  var total: Long = 0L
  override def wantsCliques: Boolean = false
  override def onClique(stack: Array[Int], len: Int): Unit = total += 1
  override def onCount(c: Long): Unit = total = Math.addExact(total, c)
}

/** Materializing sink: stores each clique as a sorted vertex array. */
final class CollectingSink extends CliqueSink {
  val cliques = new scala.collection.mutable.ArrayBuffer[Array[Int]]
  override def wantsCliques: Boolean = true
  override def onClique(stack: Array[Int], len: Int): Unit = {
    val c = java.util.Arrays.copyOf(stack, len)
    java.util.Arrays.sort(c)
    cliques += c
  }
  override def onCount(c: Long): Unit =
    throw new IllegalStateException("collecting sink must receive materialized cliques")
}
