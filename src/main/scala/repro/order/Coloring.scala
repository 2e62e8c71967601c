package repro.order

import repro.graph.LocalGraph

/** Greedy graph coloring, the substrate behind the color-based orderings of
  * DDegCol/BitCol and of EBBkC-C/EBBkC-H (Section 4.3).
  */
object Coloring {

  /** Inverse-degeneracy greedy coloring of the whole graph, which uses at
    * most delta + 1 colors (the coloring of Hasenplaugh et al. used by the
    * VBBkC baselines): each vertex, in reverse degeneracy order, gets the
    * smallest color (1-based) absent from its already-colored neighbors.
    */
  def inverseDegeneracy(g: LocalGraph): Array[Int] = {
    val order = CoreDecomposition.run(g).order
    val colors = new Array[Int](g.n)
    val used = new Array[Int](g.n + 2) // used(c) == stamp: a neighbor has color c
    var stamp = 0
    var i = g.n - 1
    while (i >= 0) {
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
      i -= 1
    }
    colors
  }
}
