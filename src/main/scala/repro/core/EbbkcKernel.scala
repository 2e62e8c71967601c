package repro.core

import repro.graph.{LocalGraph, SubgraphBuilder}
import repro.order.{Coloring, TrussDecomposition, TrussResult}

/** Prepared state for the edge-oriented branching framework EBBkC
  * (Algorithms 2–5 of the paper).
  *
  * For the truss-based and hybrid orderings this holds the truss peel ranks
  * (pi_tau); for the color-based ordering it holds a global [[ColorDag]] and
  * the graph's edges mapped into position space. One subproblem = one edge of
  * G, matching the paper's parallel scheme for EBBkC (Section 6(7)).
  */
final class EbbkcPrep(
    val g: LocalGraph,
    val k: Int,
    val cfg: EbbkcAlgo,
    val truss: TrussResult, // null iff ColorOrdering
    val cdag: ColorDag, // null unless ColorOrdering
    val cEdgeU: Array[Int], // ColorOrdering: edge endpoints in position space (u < v)
    val cEdgeV: Array[Int],
    val etT: Int // resolved early-termination threshold, 0 = off
) extends Prep {
  require(k >= 3, "k-clique listing starts at k = 3")
  override def numSubproblems: Int = g.m
  override def newKernel(): SubproblemKernel = new EbbkcKernel(this)
  override def approxBytes: Long = {
    var b = g.approxBytes
    if (truss != null) b += 4L * (3 * g.m + 1)
    if (cdag != null) b += cdag.approxBytes + 8L * g.m
    b
  }
}

object EbbkcPrep {

  def build(g: LocalGraph, k: Int, cfg: EbbkcAlgo): EbbkcPrep = cfg.ordering match {
    case TrussOrdering | HybridOrdering =>
      val truss = TrussDecomposition.run(g)
      new EbbkcPrep(g, k, cfg, truss, null, null, null, cfg.et.threshold(k, Some(truss.tau)))
    case ColorOrdering =>
      val colors = Coloring.inverseDegeneracy(g)
      val order = IntArrays.orderByKeyDesc(colors, g.n)
      val dag = ColorDag.build(Array.tabulate(g.n)(g.neighborsOf), order, colors, Array.tabulate(g.n)(identity))
      val posOf = ColorDag.positionsOf(order)
      val cEU = new Array[Int](g.m)
      val cEV = new Array[Int](g.m)
      var e = 0
      while (e < g.m) {
        val pu = posOf(g.edgeU(e)); val pv = posOf(g.edgeV(e))
        cEU(e) = math.min(pu, pv); cEV(e) = math.max(pu, pv)
        e += 1
      }
      new EbbkcPrep(g, k, cfg, null, dag, cEU, cEV, cfg.et.threshold(k, None))
  }
}

/** The EBBkC kernel: one instance per thread/partition.
  *
  * Truss path (EBBkC-T, Algorithm 3): branches carry an explicit
  * (vertex set, rank-filtered edge set) pair; sub-branches are formed by
  * intersecting with the globally precomputed suffix structures, realized
  * here as O(1) rank lookups on the CSR's parallel edge-id array.
  *
  * Hybrid path (EBBkC-H, Algorithm 5): the initial branch uses the truss
  * ordering; each resulting subgraph is colored and branched as a local
  * [[BitDag]] with both color pruning rules, its candidate sets one `Long`
  * each when it has at most 64 vertices.
  *
  * Color path (EBBkC-C, Algorithm 4): one global [[ColorDag]]; each edge
  * subproblem intersects common out-neighborhoods.
  *
  * The two color recursions pick a directed edge (u -> v), intersect common
  * out-neighborhoods and apply the pruning rules of Section 4.3. Uniqueness
  * follows from the DAG orientation: each l-clique is generated from its two
  * smallest positions.
  */
final class EbbkcKernel(prep: EbbkcPrep) extends SubproblemKernel {
  private val g = prep.g
  private val k = prep.k
  private val cfg = prep.cfg
  private val rule2 = cfg.rule2
  private val etT = prep.etT
  private val rank: Array[Int] = if (prep.truss != null) prep.truss.edgeRank else null

  private val stack = new Array[Int](k)
  // Stamped scratch maps over global vertex ids (no clearing between uses).
  private val stampOf = new Array[Int](g.n)
  private val localIdx = new Array[Int](g.n)
  private var stamp = 0
  private val sub = new SubgraphBuilder(g)
  private val hitIdx, hitPos = new Array[Int](g.maxDegree) // VSet(e) lookups
  // EBBkC-H candidate rows, one pair per edge-branching depth: the branch at
  // stack depth sp builds c_u in cuRows(sp / 2) and c_uv in c2Rows(sp / 2);
  // c2Rows(0) holds a branch graph's full vertex set. Rows grow only when a
  // branch graph needs more words, so branching itself allocates nothing.
  private val cuRows = Array.fill(k / 2 + 1)(Array.emptyLongArray)
  private val c2Rows = Array.fill(k / 2 + 1)(Array.emptyLongArray)
  // A one-word branch graph (at most 64 vertices) keeps its candidate sets in
  // `Long` values instead; the ET probe and the l <= 2 emitters read them
  // from `word`, and colorMask(x) holds the graph's positions of color >= x.
  private val word = new Array[Long](1)
  private val colorMask = new Array[Long](k - 1)

  override def run(subId: Int, sink: CliqueSink): Unit = cfg.ordering match {
    case ColorOrdering => runColorSub(subId, sink)
    case _             => runTrussSub(subId, sink)
  }

  // ---------------------------------------------------------------- truss top

  private def runTrussSub(e: Int, sink: CliqueSink): Unit = {
    val l0 = k - 2
    // O(1) size prune: the suffix common-neighbor count of e is bounded by
    // its truss number - 2, so low-truss edges cannot host a k-clique. Near
    // omega this kills almost every top-level branch before any merge — the
    // paper's "number of promising branches" effect (Section 6.2(1)).
    if (prep.truss.trussNumber(e) - 2 < l0) return
    val u = g.edgeU(e); val v = g.edgeV(e)
    val r = rank(e)

    // VSet(e): common neighbors reachable through strictly later-ranked
    // edges. The probe gallops over both lists, so it costs about the
    // smaller endpoint's degree, never the larger's.
    val h = g.probe(u, g.adj, g.offsets(v), g.offsets(v + 1), hitIdx, hitPos)
    val vset = new Array[Int](h)
    var nv = 0; var t = 0
    while (t < h) {
      if (rank(g.adjEdgeIds(hitIdx(t))) > r && rank(g.adjEdgeIds(hitPos(t))) > r) { vset(nv) = g.adj(hitPos(t)); nv += 1 }
      t += 1
    }
    if (nv < l0) return
    val verts = if (nv == h) vset else java.util.Arrays.copyOf(vset, nv)

    // The branch graph: VSet(e) with its edges ranked after e, ESet(e). Only
    // EBBkC-T branches on ESet(e), in rank order; EBBkC-H colors the rows.
    val adjL = if (l0 >= 2) sub.build(verts, rank, r) else null
    val edges = if (l0 >= 2) sub.edgeIds else Array.emptyIntArray
    stack(0) = u; stack(1) = v
    if (cfg.ordering == HybridOrdering) runHybridBranch(verts, adjL, edges, l0, sink)
    else recT(verts, sortedByRank(edges), l0, 2, sink)
  }

  /** `edges` sorted by rank, as packed (rank, id) keys. */
  private def sortedByRank(edges: Array[Int]): Array[Int] = {
    val packed = new Array[Long](edges.length)
    var i = 0
    while (i < edges.length) { packed(i) = (rank(edges(i)).toLong << 32) | edges(i); i += 1 }
    java.util.Arrays.sort(packed)
    packed.map(_.toInt)
  }

  /** The leaf work of a truss-level branch graph (verts, edges), shared by
    * EBBkC-T's recursion and EBBkC-H's top level: the size check, the ET
    * probe on the edge list, and the l = 1 / l = 2 base cases. Returns true
    * iff the branch needs no further branching.
    */
  private def finishTrussBranch(verts: Array[Int], edges: Array[Int], l: Int, sp: Int, sink: CliqueSink): Boolean = {
    if (verts.length < l) return true
    if (etT > 0 && l >= 3) {
      val rows = rowsFromEdgesIfPlex(verts, edges)
      if (rows != null) {
        val all = new Array[Long](rows(0).length)
        BitDag.fillAll(all, verts.length)
        if (PlexListers.tryEarlyTerminate(stack, sp, all, verts.length, rows, verts, l, etT, sink)) return true
      }
    }
    if (l == 1) {
      if (!sink.wantsCliques) sink.onCount(verts.length)
      else {
        var i = 0
        while (i < verts.length) { stack(sp) = verts(i); sink.onClique(stack, sp + 1); i += 1 }
      }
      return true
    }
    if (l == 2) {
      if (!sink.wantsCliques) sink.onCount(edges.length)
      else {
        var i = 0
        while (i < edges.length) {
          val f = edges(i)
          stack(sp) = g.edgeU(f); stack(sp + 1) = g.edgeV(f)
          sink.onClique(stack, sp + 2)
          i += 1
        }
      }
      return true
    }
    false
  }

  /** Bitset adjacency of the branch graph (verts, edges) over local ids for
    * the ET check, or null where the edge count alone rules out a t-plex:
    * every degree at least nv - t needs 2|E| >= nv (nv - t).
    */
  private def rowsFromEdgesIfPlex(verts: Array[Int], edges: Array[Int]): Array[Array[Long]] = {
    val nv = verts.length
    if (2L * edges.length < nv.toLong * (nv - etT)) return null
    var i = 0
    while (i < nv) { localIdx(verts(i)) = i; i += 1 }
    val rows = Array.ofDim[Long](nv, (nv + 63) >>> 6)
    i = 0
    while (i < edges.length) {
      val f = edges(i)
      val a = localIdx(g.edgeU(f)); val b = localIdx(g.edgeV(f))
      rows(a)(b >>> 6) |= 1L << (b & 63)
      rows(b)(a >>> 6) |= 1L << (a & 63)
      i += 1
    }
    rows
  }

  // ------------------------------------------------------------ EBBkC-T body

  /** Algorithm 3's recursion: branch on every edge of the current graph in
    * pi_tau order; each sub-branch keeps only later-ranked structure.
    */
  private def recT(verts: Array[Int], edges: Array[Int], l: Int, sp: Int, sink: CliqueSink): Unit = {
    if (finishTrussBranch(verts, edges, l, sp, sink)) return
    var i = 0
    while (i < edges.length) {
      val f = edges(i)
      val a = g.edgeU(f); val b = g.edgeV(f)
      val rf = rank(f)
      // V(g') = V(g) ∩ VSet(f): neighbors of both a and b via later edges.
      val next = new Array[Int](verts.length)
      var nn = 0
      var j = 0
      while (j < verts.length) {
        val w = verts(j)
        if (w != a && w != b) {
          val ea = g.edgeIdOf(a, w)
          if (ea >= 0 && rank(ea) > rf) {
            val eb = g.edgeIdOf(b, w)
            if (eb >= 0 && rank(eb) > rf) { next(nn) = w; nn += 1 }
          }
        }
        j += 1
      }
      if (nn >= l - 2) {
        val nextVerts = java.util.Arrays.copyOf(next, nn)
        val nextEdges =
          if (l - 2 >= 2) {
            // E(g') = E(g) ∩ ESet(f): later-ranked survivors within V(g').
            stamp += 1
            var q = 0
            while (q < nn) { stampOf(nextVerts(q)) = stamp; q += 1 }
            val buf = new scala.collection.mutable.ArrayBuffer[Int]
            var j2 = i + 1
            while (j2 < edges.length) {
              val f2 = edges(j2)
              if (stampOf(g.edgeU(f2)) == stamp && stampOf(g.edgeV(f2)) == stamp) buf += f2
              j2 += 1
            }
            buf.toArray
          } else Array.emptyIntArray
        stack(sp) = a; stack(sp + 1) = b
        recT(nextVerts, nextEdges, l - 2, sp + 2, sink)
      }
      i += 1
    }
  }

  // ------------------------------------------------------------ EBBkC-H body

  /** Algorithm 5: color the truss-level branch graph and hand it to the
    * color-DAG recursion. ET is probed first so dense branch graphs skip the
    * coloring altogether.
    */
  private def runHybridBranch(
      verts: Array[Int], adjL: Array[Array[Int]], edges: Array[Int], l0: Int, sink: CliqueSink): Unit = {
    if (finishTrussBranch(verts, edges, l0, 2, sink)) return
    val s = verts.length
    // Branch graphs are bounded by tau (Eq. 5), so candidate sets fit a
    // handful of words, and one word whenever s <= 64.
    val (order, colors) = ColorDag.colorOrder(adjL)
    val dag = ColorDag.buildBits(adjL, order, colors, verts)
    if (dag.words == 1) {
      // Colors descend with position, so each mask is a prefix.
      var p = 0
      var x = l0
      while (x >= 0) {
        while (p < s && dag.colors(p) >= x) p += 1
        colorMask(x) = if (p == 0) 0L else -1L >>> (64 - p)
        x -= 1
      }
      recW(dag, -1L >>> (64 - s), s, l0, 2, etHere = false, sink)
      return
    }
    if (cuRows(0).length < dag.words) {
      var i = 0
      while (i < cuRows.length) {
        cuRows(i) = new Array[Long](dag.words); c2Rows(i) = new Array[Long](dag.words); i += 1
      }
    }
    val full = c2Rows(0)
    BitDag.fillAll(full, s)
    recH(dag, full, s, l0, 2, etHere = false, sink)
  }

  /** Word-parallel edge branching over the branch graph's [[BitDag]]. The
    * candidate sets of the branch at stack depth sp live in `cuRows(sp / 2)`
    * and `c2Rows(sp / 2)`, each at least `dag.words` long. A counting branch
    * at l <= 4 sums its children's leaf counts in place (|c_uv| at l = 3,
    * the pairs in c_uv at l = 4) and hands the sink their total.
    */
  private def recH(
      dag: BitDag, c: Array[Long], cnt: Int, l: Int, sp: Int, etHere: Boolean, sink: CliqueSink): Unit = {
    if (cnt < l) return
    if (etHere && dag.tryEarlyTerminate(c, cnt, l, etT, stack, sp, sink)) return
    if (l == 1) { dag.emitSingles(c, cnt, stack, sp, sink); return }
    if (l == 2) { dag.emitPairs(c, stack, sp, sink); return }
    val leaves = l <= 4 && !sink.wantsCliques
    val words = dag.words
    val outRows = dag.outRows
    val colors = dag.colors
    val cu = cuRows(sp >>> 1)
    val c2 = c2Rows(sp >>> 1)
    var total = 0L
    var live = true
    var w = 0
    while (w < words && live) {
      var bits = c(w)
      while (bits != 0 && live) {
        val u = (w << 6) + java.lang.Long.numberOfTrailingZeros(bits)
        bits &= bits - 1
        if (colors(u) < l) live = false // Rule (1a): colors descend with position
        else {
          var ww = 0
          while (ww < words) { cu(ww) = c(ww) & outRows(u)(ww); ww += 1 }
          var w2 = 0
          var innerLive = true
          while (w2 < words && innerLive) {
            var bits2 = cu(w2)
            while (bits2 != 0 && innerLive) {
              val v = (w2 << 6) + java.lang.Long.numberOfTrailingZeros(bits2)
              bits2 &= bits2 - 1
              if (colors(v) < l - 1) innerLive = false // Rule (1b)
              else {
                var cnt2 = 0
                var w3 = 0
                while (w3 < words) {
                  c2(w3) = cu(w3) & outRows(v)(w3)
                  cnt2 += java.lang.Long.bitCount(c2(w3))
                  w3 += 1
                }
                if (leaves) {
                  if (l == 3) total += cnt2
                  else if (cnt2 >= 2) total += dag.pairsIn(c2)
                } else if (cnt2 >= l - 2 && (!rule2 || l - 2 < 3 || dag.hasColors(c2, l - 2))) { // Rule (2)
                  stack(sp) = dag.toOuter(u); stack(sp + 1) = dag.toOuter(v)
                  recH(dag, c2, cnt2, l - 2, sp + 2, etHere = true, sink)
                }
              }
            }
            w2 += 1
          }
        }
      }
      w += 1
    }
    if (total > 0) sink.onCount(total)
  }

  /** [[recH]] for a branch graph of at most 64 vertices: the same search
    * tree, with each candidate set one `Long`. Rules (1a) and (1b) become
    * masks: the members of color >= l are `c & colorMask(l)`. The ET probe
    * and the l <= 2 emitters take the set through the one-word row `word`.
    */
  private def recW(dag: BitDag, c: Long, cnt: Int, l: Int, sp: Int, etHere: Boolean, sink: CliqueSink): Unit = {
    if (cnt < l) return
    word(0) = c
    if (etHere && dag.tryEarlyTerminate(word, cnt, l, etT, stack, sp, sink)) return
    if (l == 1) { dag.emitSingles(word, cnt, stack, sp, sink); return }
    if (l == 2) { dag.emitPairs(word, stack, sp, sink); return }
    val leaves = l <= 4 && !sink.wantsCliques
    val outRows = dag.outRows
    var total = 0L
    var bits = c & colorMask(l) // Rule (1a)
    while (bits != 0) {
      val u = java.lang.Long.numberOfTrailingZeros(bits)
      bits &= bits - 1
      val cu = c & outRows(u)(0)
      var bits2 = cu & colorMask(l - 1) // Rule (1b)
      while (bits2 != 0) {
        val v = java.lang.Long.numberOfTrailingZeros(bits2)
        bits2 &= bits2 - 1
        val c2 = cu & outRows(v)(0)
        val cnt2 = java.lang.Long.bitCount(c2)
        if (leaves) {
          if (l == 3) total += cnt2
          else if (cnt2 >= 2) total += dag.pairsIn(c2)
        } else if (cnt2 >= l - 2 && (!rule2 || l - 2 < 3 || dag.hasColors(c2, l - 2))) { // Rule (2)
          stack(sp) = dag.toOuter(u); stack(sp + 1) = dag.toOuter(v)
          recW(dag, c2, cnt2, l - 2, sp + 2, etHere = true, sink)
        }
      }
    }
    if (total > 0) sink.onCount(total)
  }

  // ------------------------------------------------------------ EBBkC-C body

  /** Algorithm 4: one edge of the global color DAG per subproblem, with both
    * pruning rules applied before descending.
    */
  private def runColorSub(e: Int, sink: CliqueSink): Unit = {
    val dag = prep.cdag
    val u = prep.cEdgeU(e); val v = prep.cEdgeV(e)
    val l0 = k - 2
    // Rule (1) at the initial branch (l = k).
    if (dag.colors(u) < k || dag.colors(v) < k - 1) return
    val c0 = IntArrays.intersectSorted(dag.out(u), dag.out(v))
    if (c0.length < l0) return
    stack(0) = dag.toOuter(u); stack(1) = dag.toOuter(v)
    if (rule2 && l0 >= 3 && !dag.hasColors(c0, l0)) return // Rule (2)
    recC(dag, c0, l0, 2, sink)
  }

  /** Edge branching over the global [[ColorDag]] on sorted position arrays,
    * with [[recH]]'s in-place leaf counts at l <= 4.
    */
  private def recC(dag: ColorDag, c: Array[Int], l: Int, sp: Int, sink: CliqueSink): Unit = {
    if (c.length < l) return
    if (dag.tryEarlyTerminate(c, l, etT, stack, sp, sink)) return
    if (l == 1) { dag.emitSingles(c, stack, sp, sink); return }
    if (l == 2) { dag.emitPairs(c, stack, sp, sink); return }
    val leaves = l <= 4 && !sink.wantsCliques
    var total = 0L
    var ui = 0
    while (ui < c.length && dag.colors(c(ui)) >= l) { // Rule (1a); colors non-increasing along c
      val u = c(ui)
      val cu = IntArrays.intersectSorted(c, dag.out(u))
      var vi = 0
      while (vi < cu.length && dag.colors(cu(vi)) >= l - 1) { // Rule (1b)
        val v = cu(vi)
        if (leaves && l == 3) total += IntArrays.intersectionSize(cu, dag.out(v))
        else {
          val c2 = IntArrays.intersectSorted(cu, dag.out(v))
          if (leaves) total += dag.pairsIn(c2)
          else if (c2.length >= l - 2 && (!rule2 || l - 2 < 3 || dag.hasColors(c2, l - 2))) { // Rule (2)
            stack(sp) = dag.toOuter(u); stack(sp + 1) = dag.toOuter(v)
            recC(dag, c2, l - 2, sp + 2, sink)
          }
        }
        vi += 1
      }
      ui += 1
    }
    if (total > 0) sink.onCount(total)
  }
}
