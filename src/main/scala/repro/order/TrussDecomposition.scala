package repro.order

import repro.graph.LocalGraph

/** Result of the truss peeling of a graph.
  *
  * @param edgeOrder the peel sequence of edge ids: `edgeOrder(i)` is the i-th
  *                  removed edge. This is exactly the paper's truss-based edge
  *                  ordering pi_tau (Section 4.2, Eq. 4): at every step the
  *                  edge whose endpoints have the fewest common neighbors in
  *                  the remaining graph is removed and appended.
  * @param edgeRank  inverse of `edgeOrder`: `edgeRank(e)` is e's peel position
  * @param trussNumber per-edge truss number (k_max convention of Wang–Cheng:
  *                  an edge of the k-truss but not the (k+1)-truss gets k)
  * @param tau       the paper's tau = max over removals of the support at
  *                  removal time = max_i |V(g_i)| (Eq. 5); tau = k_max - 2
  */
final case class TrussResult(
    edgeOrder: Array[Int],
    edgeRank: Array[Int],
    trussNumber: Array[Int],
    tau: Int
) extends Serializable

/** Exact sequential truss decomposition via bucket-queue support peeling.
  *
  * Support of an edge (u,v) is its triangle count |N(u) ∩ N(v)|. Peeling
  * repeatedly removes a minimum-support edge and decrements the supports of
  * the at-most-2·support edges that shared a triangle with it. A removed
  * edge's live triangles are found by one galloping probe
  * ([[LocalGraph.probe]]) of its smaller endpoint's live neighbors in the
  * other endpoint's list, so the peel runs in O(m^1.5 log) time, which
  * matches the O(delta · m) budget of the paper up to the log factor.
  */
object TrussDecomposition {

  /** Per-edge triangle counts (supports), via degeneracy-oriented triangle
    * enumeration: every triangle is found once at its lowest-rank vertex by
    * merging two out-lists (each bounded by delta), so the whole pass is
    * O(delta * m) with linear merges — no per-edge binary searches.
    */
  def supports(g: LocalGraph): Array[Int] = {
    val rank = CoreDecomposition.run(g).rank
    val n = g.n
    // Out-neighbor (higher-rank) lists, kept in vertex-id order with the
    // parallel edge ids, so two out-lists merge in linear time.
    val outNb = new Array[Array[Int]](n)
    val outEid = new Array[Array[Int]](n)
    var u = 0
    while (u < n) {
      var cnt = 0
      var p = g.offsets(u); val end = g.offsets(u + 1)
      while (p < end) { if (rank(g.adj(p)) > rank(u)) cnt += 1; p += 1 }
      val nb = new Array[Int](cnt)
      val ei = new Array[Int](cnt)
      var i = 0
      p = g.offsets(u)
      while (p < end) {
        val w = g.adj(p)
        if (rank(w) > rank(u)) { nb(i) = w; ei(i) = g.adjEdgeIds(p); i += 1 }
        p += 1
      }
      outNb(u) = nb; outEid(u) = ei
      u += 1
    }
    val sup = new Array[Int](g.m)
    u = 0
    while (u < n) {
      val nbU = outNb(u); val eiU = outEid(u)
      var i = 0
      while (i < nbU.length) {
        val v = nbU(i)
        val eUV = eiU(i)
        val nbV = outNb(v); val eiV = outEid(v)
        var a = 0; var b = 0
        while (a < nbU.length && b < nbV.length) {
          val x = nbU(a); val y = nbV(b)
          if (x == y) {
            sup(eUV) += 1; sup(eiU(a)) += 1; sup(eiV(b)) += 1
            a += 1; b += 1
          } else if (x < y) a += 1
          else b += 1
        }
        i += 1
      }
      u += 1
    }
    sup
  }

  def run(g: LocalGraph): TrussResult = {
    val sup = supports(g)
    val q = new BucketPeel(sup)
    val trussNumber = new Array[Int](g.m)
    val liveNb, liveEdge, hitIdx, hitPos = new Array[Int](g.maxDegree)
    var level = 0
    var i = 0
    // An edge is alive, not yet peeled, iff its peel position is past i.
    while (i < g.m) {
      val cur = q.order(i)
      if (sup(cur) > level) level = sup(cur)
      trussNumber(cur) = level + 2
      val u = g.edgeU(cur); val v = g.edgeV(cur)
      val (a, b) = if (g.degree(u) <= g.degree(v)) (u, v) else (v, u)
      // The triangles (a, b, w) still alive: a's live neighbors w, with
      // their edge ids, probed in b's list.
      var cnt = 0
      var p = g.offsets(a)
      while (p < g.offsets(a + 1)) {
        if (q.pos(g.adjEdgeIds(p)) > i) { liveNb(cnt) = g.adj(p); liveEdge(cnt) = g.adjEdgeIds(p); cnt += 1 }
        p += 1
      }
      val h = g.probe(b, liveNb, 0, cnt, hitIdx, hitPos)
      var t = 0
      while (t < h) {
        val eAW = liveEdge(hitIdx(t))
        val eBW = g.adjEdgeIds(hitPos(t))
        if (q.pos(eBW) > i) {
          // Triangle (a, b, w) dies with `cur`; decrement the survivors,
          // clamped at the current level so peeled buckets stay intact.
          if (sup(eAW) > level) q.decrement(eAW)
          if (sup(eBW) > level) q.decrement(eBW)
        }
        t += 1
      }
      i += 1
    }
    TrussResult(q.order, q.pos, trussNumber, level)
  }
}
