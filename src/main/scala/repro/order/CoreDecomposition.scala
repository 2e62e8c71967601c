package repro.order

import repro.graph.LocalGraph

/** Result of the degeneracy (k-core) peeling of a graph.
  *
  * @param order    the peel sequence: `order(i)` is the i-th removed vertex
  * @param rank     inverse of `order`: `rank(v)` is v's position in the peel
  * @param coreness per-vertex core number
  * @param degeneracy the graph's degeneracy delta = max coreness
  */
final case class DegeneracyResult(
    order: Array[Int],
    rank: Array[Int],
    coreness: Array[Int],
    degeneracy: Int
) extends Serializable

/** Batagelj–Zavrsnik O(n + m) bucket-queue core decomposition.
  *
  * The peel order is the *degeneracy ordering* used by the VBBkC baselines
  * (Degen, DDegree, DDegCol, ...): orienting each edge from the earlier to
  * the later endpoint bounds every out-degree by delta.
  */
object CoreDecomposition {

  def run(g: LocalGraph): DegeneracyResult = {
    val deg = Array.tabulate(g.n)(g.degree)
    val q = new BucketPeel(deg)
    val coreness = new Array[Int](g.n)
    var level = 0
    var i = 0
    while (i < g.n) {
      val u = q.order(i)
      if (deg(u) > level) level = deg(u)
      coreness(u) = level
      // Decrement still-unpeeled neighbors, repositioning them one bucket down.
      var p = g.offsets(u)
      val end = g.offsets(u + 1)
      while (p < end) {
        val w = g.adj(p)
        if (q.pos(w) > i && deg(w) > deg(u)) q.decrement(w)
        p += 1
      }
      i += 1
    }
    DegeneracyResult(q.order, q.pos, coreness, level)
  }
}
