package kcbench

import repro.core.CliqueSink

/** Counting sink that records how each clique reached it: as arithmetic
  * (`onCount`, from early termination and the l <= 2 base cases) or one at
  * a time (`onClique`). `total` is what a plain counting sink would return.
  */
final class TallySink extends CliqueSink {
  var countCalls: Long = 0L
  var counted: Long = 0L
  var cliqueCalls: Long = 0L

  def total: Long = counted + cliqueCalls

  override def wantsCliques: Boolean = false
  override def onClique(stack: Array[Int], len: Int): Unit = cliqueCalls += 1
  override def onCount(c: Long): Unit = { countCalls += 1; counted += c }
}

/** Materializing sink: copies every clique out of the kernel's stack, as a
  * consumer that keeps cliques must, and folds a hash of it into an
  * order-independent sum. The clique hash is symmetric in its vertices and
  * taken over the generator's ids (`toCanonical`), so a listing's hash
  * depends only on its set of cliques: not on emit order, vertex order
  * within a clique, or the seeded relabelling.
  */
final class ListHashSink(toCanonical: Array[Int]) extends CliqueSink {
  private val vertexHash = toCanonical.map(v => ListHash.ofVertex(v))
  var listed: Long = 0L
  var hash: Long = 0L

  override def wantsCliques: Boolean = true
  override def onClique(stack: Array[Int], len: Int): Unit = {
    val c = java.util.Arrays.copyOf(stack, len)
    var sum = 0L
    var i = 0
    while (i < len) { sum += vertexHash(c(i)); i += 1 }
    hash += ListHash.ofClique(sum, len)
    listed += 1
  }
  override def onCount(c: Long): Unit =
    throw new IllegalStateException("a listing run must materialize every clique")
}

object ListHash {

  /** SplitMix64 finalizer: a bijective 64-bit mix. */
  @inline def mix(z0: Long): Long = {
    var z = z0
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  @inline def ofVertex(v: Int): Long = mix(v + 0x243f6a8885a308d3L)

  /** Hash of a clique of `len` vertices whose [[ofVertex]] hashes sum to `vertexSum`. */
  @inline def ofClique(vertexSum: Long, len: Int): Long = mix(vertexSum ^ (len.toLong << 56))

  /** Hash of a listing, given as vertex sets in any order. */
  def of(cliques: Iterable[Array[Int]]): Long =
    cliques.iterator.map(c => ofClique(c.iterator.map(ofVertex).sum, c.length)).sum
}
