package repro.core

/** Merge-based primitives over sorted int arrays — the workhorse of every
  * array-representation kernel (the bitset kernels use word AND instead).
  */
object IntArrays {

  /** Intersection of two sorted arrays (result sorted, exact size). */
  def intersectSorted(a: Array[Int], b: Array[Int]): Array[Int] = {
    val out = new Array[Int](math.min(a.length, b.length))
    var i = 0; var j = 0; var k = 0
    while (i < a.length && j < b.length) {
      val x = a(i); val y = b(j)
      if (x == y) { out(k) = x; k += 1; i += 1; j += 1 }
      else if (x < y) i += 1
      else j += 1
    }
    if (k == out.length) out else java.util.Arrays.copyOf(out, k)
  }

  /** Size of the intersection of two sorted arrays. */
  def intersectionSize(a: Array[Int], b: Array[Int]): Int = {
    var i = 0; var j = 0; var k = 0
    while (i < a.length && j < b.length) {
      val x = a(i); val y = b(j)
      if (x == y) { k += 1; i += 1; j += 1 }
      else if (x < y) i += 1
      else j += 1
    }
    k
  }

  /** `0 until n` ordered by `key` descending, ties by index ascending (the
    * degree and color orders of the local subgraphs), sorted as packed
    * primitive keys.
    */
  def orderByKeyDesc(key: Array[Int], n: Int): Array[Int] =
    orderByKeyDesc(key, n, new Array[Long](n), new Array[Int](n))

  /** [[orderByKeyDesc]] into `out`, sorting in the scratch `packed`; both
    * hold at least `n` entries. Returns `out`.
    */
  def orderByKeyDesc(key: Array[Int], n: Int, packed: Array[Long], out: Array[Int]): Array[Int] = {
    var i = 0
    while (i < n) { packed(i) = (-key(i).toLong << 32) | i; i += 1 }
    java.util.Arrays.sort(packed, 0, n)
    i = 0
    while (i < n) { out(i) = packed(i).toInt; i += 1 }
    out
  }
}
