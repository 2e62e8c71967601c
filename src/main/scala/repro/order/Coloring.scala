package repro.order

import repro.graph.LocalGraph

/** Greedy graph coloring, the substrate behind the color-based orderings of
  * DDegCol/BitCol and of EBBkC-C/EBBkC-H (Section 4.3).
  */
object Coloring {

  /** Inverse-degeneracy greedy coloring of the whole graph: [[greedyLocal]]
    * in reverse degeneracy order, which uses at most delta + 1 colors (the
    * coloring of Hasenplaugh et al. used by the VBBkC baselines).
    */
  def inverseDegeneracy(g: LocalGraph): Array[Int] =
    greedyLocal(Array.tabulate(g.n)(g.neighborsOf), CoreDecomposition.run(g).order.reverse)

  /** Greedy colors (1-based) of a graph given as adjacency lists over dense
    * ids `0 until s`: each vertex, in `order`, gets the smallest color absent
    * from its already-colored neighbors.
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
