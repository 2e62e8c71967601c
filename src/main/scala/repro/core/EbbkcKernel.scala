package repro.core

import repro.graph.{LocalGraph, SubgraphBuilder}
import repro.order.{Coloring, TrussDecomposition}

/** Prepared state for the edge-oriented branching framework EBBkC
  * (Algorithms 2–5 of the paper).
  *
  * For the truss-based and hybrid orderings this holds the truss peel ranks
  * (pi_tau) and `cut`, the first rank whose truss number is at least k.
  * For the color-based ordering `g` is the input graph relabeled into
  * color-position space, as [[VbbkcPrep]] relabels into degeneracy-rank
  * space: vertex p is the p-th vertex by global color descending, so a
  * vertex's out-neighbors (larger positions) are the suffix of its sorted
  * list and `colors` is non-increasing with position. One subproblem = one
  * edge of `g`, matching the paper's parallel scheme for EBBkC (Section 6(7)).
  */
final class EbbkcPrep(
    val g: LocalGraph,
    val k: Int,
    val cfg: EbbkcAlgo,
    val rank: Array[Int], // edge id -> pi_tau rank; null iff ColorOrdering
    val cut: Int, // truss orderings: #edges of truss number < k
    val colors: Array[Int], // ColorOrdering: color of each position; else null
    val toOuter: Array[Int], // ColorOrdering: position -> input vertex id; else null
    val etT: Int // resolved early-termination threshold, 0 = off
) extends Prep {
  require(k >= 3, "k-clique listing starts at k = 3")
  override def numSubproblems: Int = g.m
  override def newKernel(): SubproblemKernel = new EbbkcKernel(this)
  override def approxBytes: Long = g.approxBytes + (if (rank != null) 4L * g.m else 8L * g.n)
}

object EbbkcPrep {

  def build(g: LocalGraph, k: Int, cfg: EbbkcAlgo): EbbkcPrep = cfg.ordering match {
    case TrussOrdering | HybridOrdering =>
      val truss = TrussDecomposition.run(g)
      new EbbkcPrep(g, k, cfg, truss.edgeRank, truss.trussNumber.count(_ < k), null, null,
        cfg.et.threshold(k, Some(truss.tau)))
    case ColorOrdering =>
      val colors = Coloring.inverseDegeneracy(g)
      val order = IntArrays.orderByKeyDesc(colors, g.n)
      new EbbkcPrep(g.relabel(ColorDag.positionsOf(order)), k, cfg, null, 0, order.map(colors(_)), order,
        cfg.et.threshold(k, None))
  }
}

/** The EBBkC kernel: one instance per thread/partition. Every ordering
  * branches on bitset rows local to one subproblem's branch graph.
  *
  * Truss path (EBBkC-T, Algorithm 3): the branch graph of a top-level edge
  * is loaded into the [[BitDag]]'s rows over the builder's local ids, and
  * every branching depth branches on those rows in place. A branch graph is
  * a member set over them plus its edges, local endpoint pairs in pi_tau
  * order.
  *
  * Hybrid path (EBBkC-H, Algorithm 5): the initial branch uses the truss
  * ordering; each resulting subgraph is colored and branched as a local
  * [[BitDag]] with both color pruning rules.
  *
  * Color path (EBBkC-C, Algorithm 4): each edge of the color-position graph
  * gives the subgraph on its common out-neighbors, a [[BitDag]] in position
  * order with the global colors, branched like EBBkC-H's.
  *
  * Both color orderings pick a directed edge (u -> v), intersect common
  * out-neighborhoods and apply the pruning rules of Section 4.3: with each
  * candidate set one `Long` when the DAG has at most 64 vertices, else as
  * two vertex steps of the word-row [[DagBranch]].
  * Uniqueness follows from the DAG orientation: each l-clique is generated
  * from its two smallest positions.
  */
final class EbbkcKernel(prep: EbbkcPrep) extends SubproblemKernel {
  private val g = prep.g
  private val k = prep.k
  private val cfg = prep.cfg
  private val rule2 = cfg.rule2
  private val etT = prep.etT
  private val rank = prep.rank

  private val stack = new Array[Int](k)
  private val sub = new SubgraphBuilder(g)
  private val hitIdx, hitPos = new Array[Int](g.maxDegree) // VSet(e) lookups
  // The subproblem's vertices, ascending: VSet(e) (truss paths) or the
  // edge's common out-neighbors (EBBkC-C). Builder local id i is verts(i).
  private val verts = new Array[Int](g.maxDegree)
  // The current subproblem's DAG, rebuilt in place: EBBkC-T branches in
  // place on its loaded rows, EBBkC-H and EBBkC-C on its color order.
  private val dag = new BitDag
  // EBBkC-T's branch graphs: the node at branching depth d (stack depth
  // 2d + 2) puts each child's member set in tV(d) and, where the child
  // branches, its edges in tEnds(d + 1) (local endpoints of edge i at 2i and
  // 2i + 1, in pi_tau order); tEnds(0) holds the top level's edges, sorted
  // by rank in rankKeys. Arrays grow only when a graph needs more than they
  // hold.
  private val depths = k / 2
  private val tV = Array.fill(depths)(Array.emptyLongArray)
  private val tEnds = Array.fill(depths)(Array.emptyIntArray)
  private var rankKeys = Array.emptyLongArray
  // A DAG of more than 64 vertices: each edge branch is two vertex steps.
  private val branch = new DagBranch(dag, stack, rule2, etT, stride = 2, colored = true)
  // A one-word DAG (at most 64 vertices) keeps its candidate sets in `Long`
  // values instead; the ET probe and the l <= 2 emitters read them from
  // `word`, and colorMask(x) holds the DAG's positions of color >= x.
  private val word = new Array[Long](1)
  private val colorMask = new Array[Long](k - 1)

  override def run(subId: Int, sink: CliqueSink): Unit = cfg.ordering match {
    case ColorOrdering => runColorSub(subId, sink)
    case _             => runTrussSub(subId, sink)
  }

  // ---------------------------------------------------------------- truss top

  private def runTrussSub(e: Int, sink: CliqueSink): Unit = {
    val l0 = k - 2
    // O(1) size prune: e has at most trussNumber(e) - 2 suffix common
    // neighbors, and truss numbers never decrease along pi_tau. Near omega
    // this kills almost every top-level branch before any merge: m - cut
    // remain, the paper's "number of promising branches" (Section 6.2(1)).
    val r = rank(e)
    if (r < prep.cut) return
    val u = g.edgeU(e); val v = g.edgeV(e)

    // VSet(e): common neighbors reachable through strictly later-ranked
    // edges. The probe gallops over both lists, so it costs about the
    // smaller endpoint's degree, never the larger's.
    val h = g.probe(u, g.adj, g.offsets(v), g.offsets(v + 1), hitIdx, hitPos)
    var nv = 0; var t = 0
    while (t < h) {
      if (rank(g.adjEdgeIds(hitIdx(t))) > r && rank(g.adjEdgeIds(hitPos(t))) > r) { verts(nv) = g.adj(hitPos(t)); nv += 1 }
      t += 1
    }
    if (nv < l0) return
    stack(0) = u; stack(1) = v
    if (l0 == 1) { BitDag.emitSingles(verts, nv, null, stack, 2, sink); return } // k = 3: triangles

    // The branch graph: VSet(e) with its edges ranked after e, ESet(e), in
    // the builder's local ids. Only EBBkC-T branches on ESet(e), in rank
    // order; EBBkC-H colors the rows.
    sub.build(verts, nv, rank, r)
    if (cfg.ordering == HybridOrdering) runHybridBranch(nv, l0, sink)
    else {
      dag.load(sub, nv)
      if (tV(0).length < dag.words) for (d <- 0 until depths) tV(d) = new Array[Long](dag.words)
      recT(0, dag.full, nv, loadEdgesByRank(), l0, sink)
    }
  }

  /** Loads the last build's edges into tEnds(0), in pi_tau order; returns their number. */
  private def loadEdgesByRank(): Int = {
    val ne = sub.numEdges
    if (rankKeys.length < ne) {
      for (d <- 0 until depths) tEnds(d) = new Array[Int](2 * ne)
      rankKeys = new Array[Long](ne)
    }
    val packed = rankKeys
    var i = 0
    while (i < ne) { packed(i) = (rank(sub.edgeIds(i)).toLong << 32) | i; i += 1 }
    java.util.Arrays.sort(packed, 0, ne)
    val ends = tEnds(0)
    i = 0
    while (i < ne) {
      val f = packed(i).toInt
      ends(2 * i) = sub.ends(2 * f); ends(2 * i + 1) = sub.ends(2 * f + 1)
      i += 1
    }
    ne
  }

  /** Whether a graph of nv vertices and ne edges can pass the ET probe: every
    * degree at least nv - t needs 2 ne >= nv (nv - t).
    */
  private def mayBePlex(nv: Int, ne: Int): Boolean = etT > 0 && 2L * ne >= nv.toLong * (nv - etT)

  /** The l = 2 base case of a truss-level branch graph: each of its `ne` edges,
    * local endpoints at `ends(2i)` and `ends(2i + 1)`, completes a clique.
    */
  private def emitEdges(ends: Array[Int], ne: Int, sp: Int, sink: CliqueSink): Unit =
    if (!sink.wantsCliques) sink.onCount(ne)
    else {
      var i = 0
      while (i < ne) {
        stack(sp) = verts(ends(2 * i)); stack(sp + 1) = verts(ends(2 * i + 1))
        sink.onClique(stack, sp + 2)
        i += 1
      }
    }

  // ------------------------------------------------------------ EBBkC-T body

  /** Algorithm 3's recursion on the branch graph g at depth d: the `cnt`
    * members of `c` and the `ne` edges of tEnds(d). The rows of `dag`,
    * restricted to `c`, hold exactly E(g). Branching on edge i first clears
    * it from the rows, which then hold exactly the edges after i:
    * V(g') = rows(a) & rows(b) & c, and E(g') is the rows restricted to
    * V(g'). The node sets its edges back when its loop ends. A counting
    * node at l <= 4 adds its children's |V(g')| (l = 3) or |E(g')| (l = 4)
    * in place.
    */
  private def recT(d: Int, c: Array[Long], cnt: Int, ne: Int, l: Int, sink: CliqueSink): Unit = {
    val sp = 2 * d + 2
    val rows = dag.rows; val words = dag.words; val ends = tEnds(d)
    if (l >= 3 && mayBePlex(cnt, ne) &&
        PlexListers.tryEarlyTerminate(stack, sp, c, cnt, rows, words, verts, l, etT, sink))
      return
    if (l == 1) { BitDag.emitSingles(c, cnt, words, verts, stack, sp, sink); return }
    if (l == 2) { emitEdges(ends, ne, sp, sink); return }
    val leaves = l <= 4 && !sink.wantsCliques
    val cc = tV(d); val cEnds = tEnds(d + 1) // each child g': V(g') and E(g')
    var total = 0L
    var i = 0
    while (i < ne) {
      val a = ends(2 * i); val b = ends(2 * i + 1)
      val ra = a * words; val rb = b * words
      rows(ra + (b >>> 6)) &= ~(1L << (b & 63)); rows(rb + (a >>> 6)) &= ~(1L << (a & 63))
      var nn = 0
      var w = 0
      while (w < words) { cc(w) = rows(ra + w) & rows(rb + w) & c(w); nn += java.lang.Long.bitCount(cc(w)); w += 1 }
      if (nn >= l - 2) {
        if (leaves && l == 3) total += nn
        else if (leaves) { // |E(g')|: half the degrees in V(g') of its members
          var deg = 0
          w = 0
          while (w < words) {
            var bits = cc(w)
            while (bits != 0) {
              val rx = ((w << 6) + java.lang.Long.numberOfTrailingZeros(bits)) * words
              bits &= bits - 1
              var ww = 0
              while (ww < words) { deg += java.lang.Long.bitCount(rows(rx + ww) & cc(ww)); ww += 1 }
            }
            w += 1
          }
          total += deg / 2
        } else {
          var ce = 0
          var j = i + 1
          while (l >= 4 && j < ne) {
            val x = ends(2 * j); val y = ends(2 * j + 1)
            if ((cc(x >>> 6) & (1L << (x & 63))) != 0 && (cc(y >>> 6) & (1L << (y & 63))) != 0) {
              cEnds(2 * ce) = x; cEnds(2 * ce + 1) = y; ce += 1
            }
            j += 1
          }
          stack(sp) = verts(a); stack(sp + 1) = verts(b)
          recT(d + 1, cc, nn, ce, l - 2, sink)
        }
      }
      i += 1
    }
    i = 0
    while (i < ne) {
      val a = ends(2 * i); val b = ends(2 * i + 1)
      rows(a * words + (b >>> 6)) |= 1L << (b & 63); rows(b * words + (a >>> 6)) |= 1L << (a & 63)
      i += 1
    }
    if (total > 0) sink.onCount(total)
  }

  // ------------------------------------------------------------ EBBkC-H body

  /** Algorithm 5: color the truss-level branch graph of `s` vertices and
    * hand it to the color-DAG recursion. ET is probed first, on the rows over
    * the builder's local ids, so dense branch graphs skip the coloring
    * altogether.
    */
  private def runHybridBranch(s: Int, l0: Int, sink: CliqueSink): Unit = {
    val ne = sub.numEdges
    if (l0 == 2) { emitEdges(sub.ends, ne, 2, sink); return }
    dag.load(sub, s)
    if (mayBePlex(s, ne) &&
        PlexListers.tryEarlyTerminate(stack, 2, dag.full, s, dag.rows, dag.words, verts, l0, etT, sink))
      return
    ColorDag.buildBits(dag, ColorDag.colorOrder(dag), dag.localColors, verts, null)
    branchOn(l0, etHere = false, sink)
  }

  /** Branches on the color-ordered `dag` with `l` vertices left to pick: its
    * candidate sets are one `Long` each when it has one word, word rows of
    * the two-step [[DagBranch]] otherwise. `etHere` probes ET on the full
    * vertex set first.
    */
  private def branchOn(l: Int, etHere: Boolean, sink: CliqueSink): Unit = {
    val s = dag.s
    if (dag.words == 1) {
      // Colors descend with position, so each mask is a prefix.
      var p = 0
      var x = l
      while (x >= 0) {
        while (p < s && dag.colors(p) >= x) p += 1
        colorMask(x) = if (p == 0) 0L else -1L >>> (64 - p)
        x -= 1
      }
      recW(-1L >>> (64 - s), s, l, 2, etHere, sink)
    } else branch.run(l, 2, etHere, sink)
  }

  /** Edge branching on a DAG of at most 64 vertices, each candidate set one
    * `Long`. Rules (1a) and (1b) become masks: the members of color >= l
    * are `c & colorMask(l)`. The ET probe and the l <= 2 emitters take the
    * set through the one-word row `word`. A counting branch at l <= 4 sums
    * its children's leaf counts (|c_uv| or the pairs in c_uv) in place.
    */
  private def recW(c: Long, cnt: Int, l: Int, sp: Int, etHere: Boolean, sink: CliqueSink): Unit = {
    if (cnt < l) return
    word(0) = c
    if (etHere && dag.tryEarlyTerminate(word, cnt, l, etT, stack, sp, sink)) return
    if (l == 1) { dag.emitSingles(word, cnt, stack, sp, sink); return }
    if (l == 2) { dag.emitPairs(word, stack, sp, sink); return }
    val leaves = l <= 4 && !sink.wantsCliques
    val out = dag.out
    var total = 0L
    var bits = c & colorMask(l) // Rule (1a)
    while (bits != 0) {
      val u = java.lang.Long.numberOfTrailingZeros(bits)
      bits &= bits - 1
      val cu = c & out(u)
      var bits2 = cu & colorMask(l - 1) // Rule (1b)
      while (bits2 != 0) {
        val v = java.lang.Long.numberOfTrailingZeros(bits2)
        bits2 &= bits2 - 1
        val c2 = cu & out(v)
        val cnt2 = java.lang.Long.bitCount(c2)
        if (leaves) {
          if (l == 3) total += cnt2
          else if (cnt2 >= 2) total += dag.pairsIn(c2)
        } else if (cnt2 >= l - 2 && (!rule2 || l - 2 < 3 || dag.hasColors(c2, l - 2))) { // Rule (2)
          stack(sp) = dag.toOuter(u); stack(sp + 1) = dag.toOuter(v)
          recW(c2, cnt2, l - 2, sp + 2, etHere = true, sink)
        }
      }
    }
    if (total > 0) sink.onCount(total)
  }

  // ------------------------------------------------------------ EBBkC-C body

  /** Algorithm 4: one edge (u, v), u < v, of the color-position graph per
    * subproblem, with both pruning rules applied before descending. Its
    * common out-neighbors are v's out-suffix probed in u's list; their
    * subgraph, in position order with the global colors, goes to the same
    * DAG recursions as EBBkC-H's branch graphs.
    */
  private def runColorSub(e: Int, sink: CliqueSink): Unit = {
    val colors = prep.colors
    val u = g.edgeU(e); val v = g.edgeV(e)
    val l0 = k - 2
    // Rule (1) at the initial branch (l = k).
    if (colors(u) < k || colors(v) < k - 1) return
    val h = g.probe(u, g.adj, g.outStart(v), g.offsets(v + 1), hitIdx, hitPos)
    if (h < l0) return
    // Rule (2): colors descend along verts, so each new one is a change.
    var numColors = 1
    var i = 0
    while (i < h) {
      verts(i) = g.adj(hitPos(i))
      if (i > 0 && colors(verts(i)) != colors(verts(i - 1))) numColors += 1
      i += 1
    }
    if (rule2 && l0 >= 3 && numColors < l0) return
    stack(0) = prep.toOuter(u); stack(1) = prep.toOuter(v)
    if (l0 == 1) { BitDag.emitSingles(verts, h, prep.toOuter, stack, 2, sink); return } // k = 3: triangles
    sub.build(verts, h, null, 0)
    dag.load(sub, h)
    i = 0
    while (i < h) { dag.localColors(i) = colors(verts(i)); i += 1 }
    ColorDag.buildBits(dag, ColorDag.identityOrder(dag), dag.localColors, verts, prep.toOuter)
    branchOn(l0, etHere = true, sink)
  }
}
