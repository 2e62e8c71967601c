package repro.core

import repro.core.Combinatorics.{binomial, forEachCombination}

/** Early-termination listers for dense branches (Section 5).
  *
  * A branch (S, g, l) whose graph g is a t-plex is finished without further
  * edge-oriented branching:
  *   - g a clique: all l-subsets of V(g) are l-cliques (optimal);
  *   - g a 2-plex: the F/L/R partition of kC2Plex (Algorithm 6) enumerates
  *     l-cliques in nearly optimal time;
  *   - g a t-plex, t >= 3: kCtPlex (Algorithm 7) branches on the sparse
  *     inverse graph, accelerated by the set I of universal vertices.
  *
  * In counting mode every enumeration collapses to closed-form binomials,
  * which is where EBBkC+ET's near-omega speedups come from.
  *
  * The branch graph is passed as a bitset adjacency matrix over local ids
  * `0 until nv` (`rows(i)` bit j set iff verts(i) ~ verts(j) in g); `verts`
  * maps local ids back to the caller's vertex ids for emission.
  */
object PlexListers {

  /** Attempts early termination with threshold `t`. Returns true iff the
    * branch was fully handled (i.e. g is a t-plex). `stack(0 until sp)` holds
    * the partial clique S; capacity must be at least sp + l.
    */
  def tryEarlyTerminate(
      stack: Array[Int],
      sp: Int,
      verts: Array[Int],
      nv: Int,
      rows: Array[Array[Long]],
      l: Int,
      t: Int,
      sink: CliqueSink
  ): Boolean = {
    if (t <= 0 || nv < l) return false
    var minDeg = Int.MaxValue
    var i = 0
    while (i < nv) {
      var d = 0
      val r = rows(i)
      var w = 0
      while (w < r.length) { d += java.lang.Long.bitCount(r(w)); w += 1 }
      if (d < minDeg) minDeg = d
      i += 1
    }
    if (minDeg < nv - t) return false
    if (minDeg >= nv - 1) listFromClique(stack, sp, verts, nv, l, sink)
    else if (minDeg >= nv - 2) kC2Plex(stack, sp, verts, nv, rows, l, sink)
    else kCtPlex(stack, sp, verts, nv, rows, l, sink)
    true
  }

  @inline private def bit(rows: Array[Array[Long]], i: Int, j: Int): Boolean =
    (rows(i)(j >>> 6) & (1L << (j & 63))) != 0

  /** Builds the induced bitset adjacency of `c` from sorted neighbor lists,
    * aborting as soon as some vertex's induced degree drops below
    * `c.length - t` — i.e. as soon as the branch graph provably is not a
    * t-plex. Branches overwhelmingly fail the plex test, so this early
    * abort is what keeps the ET probe at the paper's O(|V(g)|)-flavored
    * cost instead of a full matrix build per branch.
    *
    * @param und sorted neighbor lists (same id space as `c`'s elements)
    * @return rows over local indices, or null if not a t-plex
    */
  def buildRowsIfPlex(und: Array[Array[Int]], c: Array[Int], t: Int): Array[Array[Long]] = {
    val nv = c.length
    val minDeg = nv - t
    val words = (nv + 63) >>> 6
    val rows = Array.ofDim[Long](nv, words)
    var i = 0
    while (i < nv) {
      val nb = und(c(i))
      val row = rows(i)
      var d = 0
      var a = 0; var b = 0
      while (a < nb.length && b < nv) {
        val x = nb(a); val y = c(b)
        if (x == y) { row(b >>> 6) |= 1L << (b & 63); d += 1; a += 1; b += 1 }
        else if (x < y) a += 1
        else b += 1
      }
      if (d < minDeg) return null
      i += 1
    }
    rows
  }

  /** g is a clique: emit all l-subsets (C(nv, l) cliques). */
  def listFromClique(
      stack: Array[Int], sp: Int, verts: Array[Int], nv: Int, l: Int, sink: CliqueSink
  ): Unit = {
    if (!sink.wantsCliques) { sink.onCount(binomial(nv, l)); return }
    val ids = new Array[Int](nv)
    var i = 0
    while (i < nv) { ids(i) = i; i += 1 }
    forEachCombination(ids, nv, l) { (buf, k) =>
      var j = 0
      while (j < k) { stack(sp + j) = verts(buf(j)); j += 1 }
      sink.onClique(stack, sp + k)
    }
  }

  /** Algorithm 6: list l-cliques in a 2-plex via the F/L/R partition.
    *
    * F holds the universal vertices; the rest form disjoint non-adjacent
    * pairs (L(i), R(i)). An l-clique picks a subset of F plus at most one
    * endpoint per pair, so enumeration is a triple combination loop; in
    * counting mode it is sum C(|F|,c1) C(p,c2) C(p-c2,c3).
    */
  def kC2Plex(
      stack: Array[Int], sp: Int, verts: Array[Int], nv: Int,
      rows: Array[Array[Long]], l: Int, sink: CliqueSink
  ): Unit = {
    val fBuf = new Array[Int](nv)
    val lBuf = new Array[Int](nv / 2)
    val rBuf = new Array[Int](nv / 2)
    var f = 0; var p = 0
    val paired = new Array[Boolean](nv)
    var i = 0
    while (i < nv) {
      var d = 0
      val r = rows(i)
      var w = 0
      while (w < r.length) { d += java.lang.Long.bitCount(r(w)); w += 1 }
      if (d == nv - 1) { fBuf(f) = i; f += 1 }
      else if (!paired(i)) {
        // Find i's unique non-neighbor (2-plex guarantee).
        var j = 0
        var partner = -1
        while (j < nv && partner < 0) {
          if (j != i && !bit(rows, i, j)) partner = j
          j += 1
        }
        require(partner >= 0, "2-plex invariant violated")
        lBuf(p) = i; rBuf(p) = partner; p += 1
        paired(i) = true; paired(partner) = true
      }
      i += 1
    }

    if (f + p < l) return // line 2 of Algorithm 6: no l-clique fits

    if (!sink.wantsCliques) {
      var total = 0L
      var c1 = math.max(0, l - p)
      val c1Max = math.min(l, f)
      while (c1 <= c1Max) {
        var c2 = 0
        val c2Max = math.min(l - c1, p)
        while (c2 <= c2Max) {
          // A zero C(p - c2, c3) must not let the other factors overflow.
          val b3 = binomial(p - c2, l - c1 - c2)
          if (b3 != 0)
            total = Math.addExact(total,
              Math.multiplyExact(Math.multiplyExact(binomial(f, c1), binomial(p, c2)), b3))
          c2 += 1
        }
        c1 += 1
      }
      sink.onCount(total)
      return
    }

    val pairIdx = new Array[Int](p)
    i = 0
    while (i < p) { pairIdx(i) = i; i += 1 }
    var c1 = math.max(0, l - p)
    val c1Max = math.min(l, f)
    while (c1 <= c1Max) {
      forEachCombination(fBuf, f, c1) { (fs, fk) =>
        var j = 0
        while (j < fk) { stack(sp + j) = verts(fs(j)); j += 1 }
        var c2 = 0
        val c2Max = math.min(l - c1, p)
        while (c2 <= c2Max) {
          val c3 = l - c1 - c2
          if (c3 <= p - c2) {
            forEachCombination(pairIdx, p, c2) { (ls, lk) =>
              var q = 0
              while (q < lk) { stack(sp + c1 + q) = verts(lBuf(ls(q))); q += 1 }
              // R-side choices come from pairs whose L endpoint was not taken.
              val remaining = new Array[Int](p - lk)
              var ri = 0; var pi = 0; var li = 0
              while (pi < p) {
                if (li < lk && ls(li) == pi) li += 1
                else { remaining(ri) = pi; ri += 1 }
                pi += 1
              }
              forEachCombination(remaining, remaining.length, c3) { (rs, rk) =>
                var q2 = 0
                while (q2 < rk) { stack(sp + c1 + lk + q2) = verts(rBuf(rs(q2))); q2 += 1 }
                sink.onClique(stack, sp + l)
              }
            }
          }
          c2 += 1
        }
      }
      c1 += 1
    }
  }

  /** Algorithm 7: list l-cliques in a t-plex (t >= 3) by branching on the
    * inverse graph. I is the set of universal vertices: any remaining budget
    * can be filled from I combinatorially at every node.
    */
  def kCtPlex(
      stack: Array[Int], sp: Int, verts: Array[Int], nv: Int,
      rows: Array[Array[Long]], l: Int, sink: CliqueSink
  ): Unit = {
    val iBuf = new Array[Int](nv)
    val cBuf = new Array[Int](nv)
    var nI = 0; var nC = 0
    var i = 0
    while (i < nv) {
      var d = 0
      val r = rows(i)
      var w = 0
      while (w < r.length) { d += java.lang.Long.bitCount(r(w)); w += 1 }
      if (d == nv - 1) { iBuf(nI) = i; nI += 1 }
      else { cBuf(nC) = i; nC += 1 }
      i += 1
    }

    def emitWithI(sp2: Int, lRem: Int): Unit = {
      if (lRem == 0) { if (sink.wantsCliques) sink.onClique(stack, sp2) else sink.onCount(1L); return }
      if (nI >= lRem) {
        if (!sink.wantsCliques) sink.onCount(binomial(nI, lRem))
        else forEachCombination(iBuf, nI, lRem) { (buf, k) =>
          var j = 0
          while (j < k) { stack(sp2 + j) = verts(buf(j)); j += 1 }
          sink.onClique(stack, sp2 + k)
        }
      }
    }

    def rec(cand: Array[Int], candLen: Int, sp2: Int, lRem: Int): Unit = {
      emitWithI(sp2, lRem)
      if (lRem == 0) return
      var idx = 0
      while (idx < candLen) {
        val v = cand(idx)
        val lNew = lRem - 1
        // Suffix candidates adjacent to v in g (= not inverse-neighbors).
        val next = new Array[Int](candLen - idx - 1)
        var nn = 0
        var j = idx + 1
        while (j < candLen) {
          if (bit(rows, v, cand(j))) { next(nn) = cand(j); nn += 1 }
          j += 1
        }
        if (nn + nI >= lNew) {
          stack(sp2) = verts(v)
          rec(next, nn, sp2 + 1, lNew)
        }
        idx += 1
      }
    }

    rec(cBuf, nC, sp, l)
  }
}
