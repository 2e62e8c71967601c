package repro.core

import repro.graph.{LocalGraph, SubgraphBuilder}
import repro.order.CoreDecomposition

/** Prepared state for the vertex-oriented baselines (Section 3 / 7).
  *
  * The graph is relabeled into degeneracy-rank space, so a vertex's
  * out-neighbors (later peel positions) are simply the suffix of its sorted
  * adjacency list and every out-degree is bounded by delta. One subproblem is
  * a vertex (NP scheme) or a DAG edge (EP scheme).
  */
final class VbbkcPrep(
    val gRel: LocalGraph,
    val toGlobal: Array[Int], // rank-space id -> original vertex id
    val cut: Int, // first rank of coreness >= k - 1; coreness never decreases along the peel
    val k: Int,
    val cfg: VbbkcAlgo,
    val etT: Int
) extends Prep {
  require(k >= 3, "k-clique listing starts at k = 3")
  override def numSubproblems: Int = if (cfg.edgeParallel) gRel.m else gRel.n
  override def newKernel(): SubproblemKernel = new VbbkcKernel(this)
  override def approxBytes: Long = gRel.approxBytes + 4L * gRel.n
}

object VbbkcPrep {
  def build(g: LocalGraph, k: Int, cfg: VbbkcAlgo): VbbkcPrep = {
    val core = CoreDecomposition.run(g)
    val gRel = g.relabel(core.rank)
    new VbbkcPrep(gRel, core.order, core.coreness.count(_ < k - 1), k, cfg, cfg.et.threshold(k, None))
  }
}

/** VBBkC kernel covering Degen, DDegree, DDegCol and their bitset twins
  * SDegree / BitCol (the JVM stand-ins for the SIMD implementations), plus
  * the adapted Rule (2) ("+" variants, color sub-ordering only) and early
  * termination (bitset rows only).
  *
  * Per subproblem it materializes the induced subgraph on the top vertex's
  * out-neighborhood (at most delta vertices), reorders it by the configured
  * sub-strategy into one [[BitDag]], and recurses one vertex at a time
  * (Algorithm 1) on its bitset rows or, for the array baselines, on the
  * same DAG as sorted int rows.
  */
final class VbbkcKernel(prep: VbbkcPrep) extends SubproblemKernel {
  private val g = prep.gRel
  private val k = prep.k
  private val cfg = prep.cfg
  private val etT = prep.etT
  private val useColor = cfg.sub == SubColor
  // VbbkcAlgo allows Rule (2) only under the color sub-ordering.
  private val colorRule2 = cfg.rule2

  private val stack = new Array[Int](k)
  private val sub = new SubgraphBuilder(g)
  private val dag = new BitDag // the subproblem DAG, rebuilt in place
  // The subproblem's vertices, ascending (builder local id i is cands(i)),
  // and the EP scheme's probe hits.
  private val cands, hitIdx, hitPos = new Array[Int](g.maxDegree)
  private val branch = new DagBranch(dag, stack, colorRule2, etT, stride = 1, colored = useColor) // bitset rows

  override def run(subId: Int, sink: CliqueSink): Unit =
    if (cfg.edgeParallel) runEdgeSub(subId, sink) else runVertexSub(subId, sink)

  private def runVertexSub(v: Int, sink: CliqueSink): Unit = {
    if (v < prep.cut) return // O(1) prune: out-degree <= coreness < k - 1
    val from = g.outStart(v)
    val s = g.offsets(v + 1) - from
    if (s < k - 1) return
    System.arraycopy(g.adj, from, cands, 0, s)
    stack(0) = prep.toGlobal(v)
    processSub(s, k - 1, 1, sink)
  }

  /** EP scheme: the first two branching levels are merged into one edge
    * subproblem over the global degeneracy DAG (Section 6(7)). Its
    * candidates are v's out-suffix probed in u's list.
    */
  private def runEdgeSub(e: Int, sink: CliqueSink): Unit = {
    val u = g.edgeU(e); val v = g.edgeV(e) // u < v in rank space
    if (u < prep.cut) return // O(1) prune: the candidates are out-neighbors of u
    val s = g.probe(u, g.adj, g.outStart(v), g.offsets(v + 1), hitIdx, hitPos)
    if (s < k - 2) return
    var i = 0
    while (i < s) { cands(i) = g.adj(hitIdx(i)); i += 1 }
    stack(0) = prep.toGlobal(u); stack(1) = prep.toGlobal(v)
    processSub(s, k - 2, 2, sink)
  }

  /** The subproblem on the ascending `cands(0 until s)`: their induced
    * subgraph, ordered by the sub-strategy into the [[BitDag]], recursed on
    * as bitset rows or, for the array baselines, as int rows.
    */
  private def processSub(s: Int, l0: Int, sp: Int, sink: CliqueSink): Unit = {
    if (l0 == 1) { BitDag.emitSingles(cands, s, prep.toGlobal, stack, sp, sink); return }
    sub.build(cands, s, null, 0)
    dag.load(sub, s)
    val order = cfg.sub match {
      case SubNatural => ColorDag.identityOrder(dag)
      case SubDegree  => ColorDag.degreeOrder(dag)
      case SubColor   => ColorDag.colorOrder(dag)
    }
    ColorDag.buildBits(dag, order, if (useColor) dag.localColors else null, cands, prep.toGlobal)
    if (cfg.bitset) branch.run(l0, sp, et = true, sink)
    else recArr(ColorDag.fromBits(dag), Array.tabulate(s)(identity), l0, sp, sink)
  }

  // ------------------------------------------------------------ array kernel

  private def recArr(dag: ColorDag, c: Array[Int], l: Int, sp: Int, sink: CliqueSink): Unit = {
    if (c.length < l) return
    if (l == 1) { BitDag.emitSingles(c, c.length, dag.toOuter, stack, sp, sink); return }
    if (l == 2) { dag.emitPairs(c, stack, sp, sink); return }
    // A counting branch at l = 3 sums its children's pairs in place.
    val leaves = l == 3 && !sink.wantsCliques
    var total = 0L
    var i = 0
    while (i < c.length && !(useColor && dag.colors(c(i)) < l)) { // color pruning; colors non-increasing
      val u = c(i)
      val cu = IntArrays.intersectSorted(c, dag.out(u))
      if (leaves) total += dag.pairsIn(cu)
      else if (cu.length >= l - 1 && (!colorRule2 || l - 1 < 3 || dag.hasColors(cu, l - 1))) { // Rule (2)
        stack(sp) = dag.toOuter(u)
        recArr(dag, cu, l - 1, sp + 1, sink)
      }
      i += 1
    }
    if (total > 0) sink.onCount(total)
  }
}
