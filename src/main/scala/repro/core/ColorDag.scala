package repro.core

/** A colored DAG over a (sub)graph, relabeled into *position space*: vertex p
  * is the p-th vertex of the color-based ordering (color descending, ties by
  * id ascending — Section 4.3), so `colors` is non-increasing with position
  * and every edge is oriented toward the larger position. This is the
  * structure EBBkC-C branches on globally and EBBkC-H builds per truss-level
  * subproblem.
  *
  * @param out      out-neighbors (larger positions), sorted ascending
  * @param und      all neighbors as positions, sorted ascending
  * @param colors   greedy color of each position (non-increasing)
  * @param toOuter  position -> caller's vertex id (for emission)
  */
final class ColorDag(
    val s: Int,
    val out: Array[Array[Int]],
    val und: Array[Array[Int]],
    val colors: Array[Int],
    val toOuter: Array[Int]
) extends Serializable {
  val maxColor: Int = if (s == 0) 0 else colors(0)

  def approxBytes: Long = {
    var b = 4L * (2 * s + 2)
    var i = 0
    while (i < s) { b += 4L * (out(i).length + und(i).length); i += 1 }
    b
  }
}

object ColorDag {

  /** Rule (2)'s test: whether the positions in `c` carry at least `need`
    * distinct colors. `c` is sorted and colors are non-increasing with
    * position, so each new color is a transition, and the scan stops at the
    * `need`-th one.
    */
  def hasColors(c: Array[Int], colors: Array[Int], need: Int): Boolean = {
    var seen = 0
    var last = -1
    var i = 0
    while (i < c.length && seen < need) {
      val col = colors(c(i))
      if (col != last) { seen += 1; last = col }
      i += 1
    }
    seen >= need
  }

  /** [[hasColors]] for a position set given as the bitset `c(0 until words)`. */
  def hasColorsBits(c: Array[Long], words: Int, colors: Array[Int], need: Int): Boolean = {
    var seen = 0
    var last = -1
    var w = 0
    while (w < words && seen < need) {
      var bits = c(w)
      while (bits != 0 && seen < need) {
        val col = colors((w << 6) + java.lang.Long.numberOfTrailingZeros(bits))
        bits &= bits - 1
        if (col != last) { seen += 1; last = col }
      }
      w += 1
    }
    seen >= need
  }

  /** Builds the DAG from adjacency lists over dense ids `0 until s`.
    *
    * @return the DAG plus `posOf`: dense id -> position (needed by callers
    *         that must map pre-existing edge endpoints into position space)
    */
  def build(
      adjLists: Array[Array[Int]],
      colors: Array[Int],
      toOuterIds: Array[Int]
  ): (ColorDag, Array[Int]) = {
    val s = adjLists.length
    val order = new Array[Int](s) // position -> dense id
    var i = 0
    while (i < s) { order(i) = i; i += 1 }
    // Sort by color descending, ties by id ascending.
    val boxed = order.sortBy(v => (-colors(v), v))
    val posOf = new Array[Int](s)
    i = 0
    while (i < s) { posOf(boxed(i)) = i; i += 1 }

    val out = new Array[Array[Int]](s)
    val und = new Array[Array[Int]](s)
    val cols = new Array[Int](s)
    val toOuter = new Array[Int](s)
    var p = 0
    while (p < s) {
      val v = boxed(p)
      val nb = adjLists(v)
      val undP = new Array[Int](nb.length)
      var j = 0
      while (j < nb.length) { undP(j) = posOf(nb(j)); j += 1 }
      java.util.Arrays.sort(undP)
      und(p) = undP
      var lo = 0
      while (lo < undP.length && undP(lo) <= p) lo += 1
      out(p) = java.util.Arrays.copyOfRange(undP, lo, undP.length)
      cols(p) = colors(v)
      toOuter(p) = toOuterIds(v)
      p += 1
    }
    (new ColorDag(s, out, und, cols, toOuter), posOf)
  }
}
