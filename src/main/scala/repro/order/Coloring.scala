package repro.order

import repro.graph.LocalGraph

/** Greedy graph coloring, the substrate behind the color-based orderings of
  * DDegCol/BitCol and of EBBkC-C/EBBkC-H (Section 4.3).
  */
object Coloring {

  /** Greedy colors (1-based) assigning each vertex, in the given order, the
    * smallest color absent from its already-colored neighbors.
    *
    * With `order` = reverse degeneracy order this uses at most delta + 1
    * colors (the "inverse degeneracy" coloring of Hasenplaugh et al. used by
    * the VBBkC baselines).
    */
  def greedy(g: LocalGraph, order: Array[Int]): Array[Int] = {
    val n = g.n
    val colors = new Array[Int](n) // 0 = uncolored
    val used = new Array[Int](n + 2) // stamp array: used(c) == stamp means taken
    var stamp = 0
    var i = 0
    while (i < order.length) {
      val v = order(i)
      stamp += 1
      var p = g.offsets(v)
      val end = g.offsets(v + 1)
      while (p < end) {
        val c = colors(g.adj(p))
        if (c > 0) used(c) = stamp
        p += 1
      }
      var c = 1
      while (used(c) == stamp) c += 1
      colors(v) = c
      i += 1
    }
    colors
  }

  /** Inverse-degeneracy greedy coloring of the whole graph. */
  def inverseDegeneracy(g: LocalGraph): Array[Int] =
    greedy(g, CoreDecomposition.run(g).order.reverse)

  /** Greedy coloring of a *local* subgraph given as adjacency lists over
    * dense ids `0 until s`, processing vertices in `order`.
    */
  def greedyLocal(adjLists: Array[Array[Int]], order: Array[Int]): Array[Int] = {
    val s = adjLists.length
    val colors = new Array[Int](s)
    val used = new Array[Int](s + 2)
    var stamp = 0
    var i = 0
    while (i < order.length) {
      val v = order(i)
      stamp += 1
      val nb = adjLists(v)
      var j = 0
      while (j < nb.length) {
        val c = colors(nb(j))
        if (c > 0) used(c) = stamp
        j += 1
      }
      var c = 1
      while (used(c) == stamp) c += 1
      colors(v) = c
      i += 1
    }
    colors
  }

  def numColors(colors: Array[Int]): Int = if (colors.isEmpty) 0 else colors.max
}
