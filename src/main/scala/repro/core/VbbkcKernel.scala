package repro.core

import repro.graph.LocalGraph
import repro.order.{Coloring, CoreDecomposition}

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
    val coreness: Array[Int], // rank-space coreness (bounds out-degree)
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
    val coreness = Array.tabulate(g.n)(r => core.coreness(core.order(r)))
    val etT = cfg.et match {
      case EtOff      => 0
      case EtFixed(t) => t
      case EtAuto     => 3
    }
    new VbbkcPrep(gRel, core.order, coreness, k, cfg, etT)
  }
}

/** VBBkC kernel covering Degen, DDegree, DDegCol and their bitset twins
  * SDegree / BitCol (the JVM stand-ins for the SIMD implementations), plus
  * the adapted Rule (2) ("+" variants) and early termination.
  *
  * Per subproblem it materializes the induced subgraph on the top vertex's
  * out-neighborhood (at most delta vertices), reorders it by the configured
  * sub-strategy, and recurses one vertex at a time (Algorithm 1).
  */
final class VbbkcKernel(prep: VbbkcPrep) extends SubproblemKernel {
  private val g = prep.gRel
  private val k = prep.k
  private val cfg = prep.cfg
  private val etT = prep.etT
  private val useColor = cfg.sub == SubColor

  private val stack = new Array[Int](k)
  private val stampOf = new Array[Int](g.n)
  private val localIdx = new Array[Int](g.n)
  private var stamp = 0
  // Bitset candidate rows, one per stack depth: the branch at depth sp
  // builds its candidate set in cRows(sp), so a subproblem entering at depth
  // sp starts from its full set in cRows(sp - 1). Rows grow only when a
  // subproblem needs more words, so branching itself allocates nothing.
  private val cRows = Array.fill(k)(Array.emptyLongArray)

  override def run(subId: Int, sink: CliqueSink): Unit =
    if (cfg.edgeParallel) runEdgeSub(subId, sink) else runVertexSub(subId, sink)

  /** Rank-space out-neighbors of v (suffix of the sorted adjacency list). */
  private def outNeighbors(v: Int): Array[Int] = {
    var lo = g.offsets(v)
    val hi = g.offsets(v + 1)
    while (lo < hi && g.adj(lo) <= v) lo += 1
    java.util.Arrays.copyOfRange(g.adj, lo, hi)
  }

  private def runVertexSub(v: Int, sink: CliqueSink): Unit = {
    // O(1) prune: out-degree in the degeneracy DAG is bounded by coreness.
    if (prep.coreness(v) < k - 1) return
    val cands = outNeighbors(v)
    if (cands.length < k - 1) return
    stack(0) = prep.toGlobal(v)
    processSub(cands, k - 1, 1, sink)
  }

  /** EP scheme: the first two branching levels are merged into one edge
    * subproblem over the global degeneracy DAG (Section 6(7)).
    */
  private def runEdgeSub(e: Int, sink: CliqueSink): Unit = {
    val u = g.edgeU(e); val v = g.edgeV(e) // u < v in rank space
    val cands = IntArrays.intersectSorted(outNeighbors(u), outNeighbors(v))
    if (cands.length < k - 2) return
    stack(0) = prep.toGlobal(u); stack(1) = prep.toGlobal(v)
    processSub(cands, k - 2, 2, sink)
  }

  private def processSub(cands: Array[Int], l0: Int, sp: Int, sink: CliqueSink): Unit = {
    if (l0 == 1) {
      if (!sink.wantsCliques) sink.onCount(cands.length)
      else {
        var i = 0
        while (i < cands.length) { stack(sp) = prep.toGlobal(cands(i)); sink.onClique(stack, sp + 1); i += 1 }
      }
      return
    }
    // Induced subgraph on the candidate set, in dense local ids.
    val s = cands.length
    stamp += 1
    var i = 0
    while (i < s) { stampOf(cands(i)) = stamp; localIdx(cands(i)) = i; i += 1 }
    val adjL = new Array[Array[Int]](s)
    i = 0
    while (i < s) {
      val a = cands(i)
      val buf = new Array[Int](math.min(s, g.degree(a)))
      var nb = 0
      var p = g.offsets(a); val end = g.offsets(a + 1)
      while (p < end) {
        val w = g.adj(p)
        if (stampOf(w) == stamp) { buf(nb) = localIdx(w); nb += 1 }
        p += 1
      }
      adjL(i) = java.util.Arrays.copyOf(buf, nb)
      java.util.Arrays.sort(adjL(i))
      i += 1
    }
    // Sub-strategy ordering of the local subgraph.
    val degs = Array.tabulate(s)(adjL(_).length)
    val (order, colors) = cfg.sub match {
      case SubNatural => (Array.tabulate(s)(identity), null)
      case SubDegree  => (IntArrays.orderByKeyDesc(degs, s), null)
      case SubColor =>
        val cols = Coloring.greedyLocal(adjL, IntArrays.orderByKeyDesc(degs, s))
        (IntArrays.orderByKeyDesc(cols, s), cols)
    }
    val posOf = new Array[Int](s)
    i = 0
    while (i < s) { posOf(order(i)) = i; i += 1 }
    val und = new Array[Array[Int]](s)
    val out = new Array[Array[Int]](s)
    val posColors = if (colors == null) null else new Array[Int](s)
    val toOuter = new Array[Int](s)
    var p2 = 0
    while (p2 < s) {
      val v = order(p2)
      val nb = adjL(v)
      val undP = new Array[Int](nb.length)
      var j = 0
      while (j < nb.length) { undP(j) = posOf(nb(j)); j += 1 }
      java.util.Arrays.sort(undP)
      und(p2) = undP
      var lo = 0
      while (lo < undP.length && undP(lo) <= p2) lo += 1
      out(p2) = java.util.Arrays.copyOfRange(undP, lo, undP.length)
      if (posColors != null) posColors(p2) = colors(v)
      toOuter(p2) = prep.toGlobal(cands(v))
      p2 += 1
    }
    val all = Array.tabulate(s)(identity)
    if (cfg.bitset) {
      val words = (s + 63) >>> 6
      val outRows = Array.ofDim[Long](s, words)
      val undRows = Array.ofDim[Long](s, words)
      i = 0
      while (i < s) {
        var j = 0
        while (j < out(i).length) { val b = out(i)(j); outRows(i)(b >>> 6) |= 1L << (b & 63); j += 1 }
        j = 0
        while (j < und(i).length) { val b = und(i)(j); undRows(i)(b >>> 6) |= 1L << (b & 63); j += 1 }
        i += 1
      }
      if (cRows(0).length < words) {
        i = 0
        while (i < cRows.length) { cRows(i) = new Array[Long](words); i += 1 }
      }
      val full = cRows(sp - 1)
      i = 0
      while (i < words) { full(i) = if (i < (s >>> 6)) -1L else (1L << (s & 63)) - 1; i += 1 }
      recBits(full, s, l0, sp, outRows, undRows, posColors, toOuter, words, sink)
    } else {
      recArr(all, l0, sp, out, und, posColors, toOuter, sink)
    }
  }

  // ------------------------------------------------------------ array kernel

  private def recArr(
      c: Array[Int], l: Int, sp: Int,
      out: Array[Array[Int]], und: Array[Array[Int]],
      posColors: Array[Int], toOuter: Array[Int], sink: CliqueSink
  ): Unit = {
    if (c.length < l) return
    if (etT > 0 && l >= 3) {
      val rows = PlexListers.buildRowsIfPlex(und(_), c, etT)
      if (rows != null) {
        val nv = c.length
        val verts = new Array[Int](nv)
        var i = 0
        while (i < nv) { verts(i) = toOuter(c(i)); i += 1 }
        if (PlexListers.tryEarlyTerminate(stack, sp, verts, nv, rows, l, etT, sink)) return
      }
    }
    if (l == 1) {
      if (!sink.wantsCliques) sink.onCount(c.length)
      else {
        var i = 0
        while (i < c.length) { stack(sp) = toOuter(c(i)); sink.onClique(stack, sp + 1); i += 1 }
      }
      return
    }
    if (l == 2) {
      if (!sink.wantsCliques) {
        var total = 0L
        var i = 0
        while (i < c.length) { total += IntArrays.intersectionSize(c, out(c(i))); i += 1 }
        sink.onCount(total)
        return
      }
      var i = 0
      while (i < c.length) {
        val u = c(i)
        val cu = IntArrays.intersectSorted(c, out(u))
        var j = 0
        while (j < cu.length) {
          stack(sp) = toOuter(u); stack(sp + 1) = toOuter(cu(j))
          sink.onClique(stack, sp + 2)
          j += 1
        }
        i += 1
      }
      return
    }
    var i = 0
    while (i < c.length) {
      val u = c(i)
      if (useColor && posColors(u) < l) return // color pruning; colors non-increasing
      val cu = IntArrays.intersectSorted(c, out(u))
      if (cu.length >= l - 1 &&
          (!cfg.rule2 || !useColor || ColorDag.hasColors(cu, posColors, l - 1))) {
        stack(sp) = toOuter(u)
        recArr(cu, l - 1, sp + 1, out, und, posColors, toOuter, sink)
      }
      i += 1
    }
  }

  // ----------------------------------------------------------- bitset kernel

  private def recBits(
      c: Array[Long], cCount: Int, l: Int, sp: Int,
      outRows: Array[Array[Long]], undRows: Array[Array[Long]],
      posColors: Array[Int], toOuter: Array[Int], words: Int, sink: CliqueSink
  ): Unit = {
    if (cCount < l) return
    if (etT > 0 && l >= 3) {
      // Cheap pre-check with early abort: induced degree of each member via
      // word AND; most branches fail on the first member scanned.
      var plex = true
      val minDeg = cCount - etT
      var w = 0
      while (w < words && plex) {
        var bits = c(w)
        while (bits != 0 && plex) {
          val u = (w << 6) + java.lang.Long.numberOfTrailingZeros(bits)
          bits &= bits - 1
          var d = 0
          var ww = 0
          while (ww < words) { d += java.lang.Long.bitCount(c(ww) & undRows(u)(ww)); ww += 1 }
          if (d < minDeg) plex = false
        }
        w += 1
      }
      if (plex) {
        val members = new Array[Int](cCount)
        var mi = 0
        w = 0
        while (w < words) {
          var bits = c(w)
          while (bits != 0) {
            members(mi) = (w << 6) + java.lang.Long.numberOfTrailingZeros(bits)
            bits &= bits - 1
            mi += 1
          }
          w += 1
        }
        val cw = (cCount + 63) >>> 6
        val rows = Array.ofDim[Long](cCount, cw)
        var i = 0
        while (i < cCount) {
          var j = i + 1
          while (j < cCount) {
            val a = members(i); val b = members(j)
            if ((undRows(a)(b >>> 6) & (1L << (b & 63))) != 0) {
              rows(i)(j >>> 6) |= 1L << (j & 63)
              rows(j)(i >>> 6) |= 1L << (i & 63)
            }
            j += 1
          }
          i += 1
        }
        val verts = new Array[Int](cCount)
        i = 0
        while (i < cCount) { verts(i) = toOuter(members(i)); i += 1 }
        if (PlexListers.tryEarlyTerminate(stack, sp, verts, cCount, rows, l, etT, sink)) return
      }
    }
    if (l == 1) {
      if (!sink.wantsCliques) { sink.onCount(cCount); return }
      var w = 0
      while (w < words) {
        var bits = c(w)
        while (bits != 0) {
          val u = (w << 6) + java.lang.Long.numberOfTrailingZeros(bits)
          bits &= bits - 1
          stack(sp) = toOuter(u); sink.onClique(stack, sp + 1)
        }
        w += 1
      }
      return
    }
    if (l == 2) {
      val counting = !sink.wantsCliques
      var total = 0L
      var w = 0
      while (w < words) {
        var bits = c(w)
        while (bits != 0) {
          val u = (w << 6) + java.lang.Long.numberOfTrailingZeros(bits)
          bits &= bits - 1
          var ww = 0
          if (counting) {
            while (ww < words) { total += java.lang.Long.bitCount(c(ww) & outRows(u)(ww)); ww += 1 }
          } else {
            while (ww < words) {
              var bits2 = c(ww) & outRows(u)(ww)
              while (bits2 != 0) {
                val v = (ww << 6) + java.lang.Long.numberOfTrailingZeros(bits2)
                bits2 &= bits2 - 1
                stack(sp) = toOuter(u); stack(sp + 1) = toOuter(v)
                sink.onClique(stack, sp + 2)
              }
              ww += 1
            }
          }
        }
        w += 1
      }
      if (counting) sink.onCount(total)
      return
    }
    val cNext = cRows(sp)
    var w = 0
    while (w < words) {
      var bits = c(w)
      while (bits != 0) {
        val u = (w << 6) + java.lang.Long.numberOfTrailingZeros(bits)
        bits &= bits - 1
        if (useColor && posColors(u) < l) return // positions ascend, colors descend
        var cnt = 0
        var ww = 0
        while (ww < words) { cNext(ww) = c(ww) & outRows(u)(ww); cnt += java.lang.Long.bitCount(cNext(ww)); ww += 1 }
        if (cnt >= l - 1 && (!cfg.rule2 || !useColor || ColorDag.hasColorsBits(cNext, words, posColors, l - 1))) {
          stack(sp) = toOuter(u)
          recBits(cNext, cnt, l - 1, sp + 1, outRows, undRows, posColors, toOuter, words, sink)
        }
      }
      w += 1
    }
  }
}
