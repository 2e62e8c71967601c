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
  * The branch graph is the member bitset `c` over flat bitset adjacency
  * `rows` of `words` words per row: bit v of row u (the words from
  * `u * words` on) is set iff u ~ v, for ids u, v of any graph containing
  * g. Bits of a row outside `c` are ignored, and `outer` maps ids to the
  * caller's vertex ids for emission.
  */
object PlexListers {

  /** Attempts early termination with threshold `t` of the branch on the
    * `cnt` members of `c`. Returns true iff the branch was fully handled
    * (i.e. g is a t-plex). `stack(0 until sp)` holds the partial clique S;
    * capacity must be at least sp + l. `c` is read over `words` words.
    */
  def tryEarlyTerminate(
      stack: Array[Int],
      sp: Int,
      c: Array[Long],
      cnt: Int,
      rows: Array[Long],
      words: Int,
      outer: Array[Int],
      l: Int,
      t: Int,
      sink: CliqueSink
  ): Boolean = {
    if (t <= 0 || cnt < l || cnt == 0) return false
    val pass = degreePass(c, cnt, rows, words, cnt - t, null, 0)
    if (pass < 0) return false
    val minDeg = (pass >>> 32).toInt
    val f = pass.toInt
    if (minDeg >= cnt - 2 && !sink.wantsCliques) {
      // A clique is the 2-plex with no pairs.
      val p = (cnt - f) / 2
      if (f + p >= l) sink.onCount(count2Plex(f, p, l))
    } else {
      val members = new Array[Int](cnt)
      degreePass(c, cnt, rows, words, cnt - t, members, f)
      if (minDeg >= cnt - 2) kC2Plex(stack, sp, members, f, cnt, rows, words, outer, l, sink)
      else kCtPlex(stack, sp, members, f, cnt, rows, words, outer, l, sink)
    }
    true
  }

  /** The plex test, one pass over the members of `c`: each one's induced
    * degree is the popcount of `c` and row u. Returns -1 at the first member
    * below `minDeg`: branches overwhelmingly fail the test, most of them on
    * the first member scanned. Otherwise returns the smallest degree (high
    * 32 bits) and the number f of universal members (low 32 bits). Given f
    * from an earlier pass, a non-null `members` gets the ids in ascending
    * order, the universal ones in `members(0 until f)` and the others in
    * `members(f until cnt)`.
    */
  private def degreePass(
      c: Array[Long], cnt: Int, rows: Array[Long], words: Int, minDeg: Int, members: Array[Int], f0: Int): Long = {
    var low = cnt
    var f = 0
    var others = f0
    var w = 0
    while (w < words) {
      var bits = c(w)
      while (bits != 0) {
        val u = (w << 6) + java.lang.Long.numberOfTrailingZeros(bits)
        bits &= bits - 1
        val r = u * words
        var d = 0
        var ww = 0
        while (ww < words) { d += java.lang.Long.bitCount(c(ww) & rows(r + ww)); ww += 1 }
        if (d < minDeg) return -1L
        if (d < low) low = d
        if (d == cnt - 1) { if (members != null) members(f) = u; f += 1 }
        else if (members != null) { members(others) = u; others += 1 }
      }
      w += 1
    }
    (low.toLong << 32) | f
  }

  @inline private def bit(rows: Array[Long], words: Int, i: Int, j: Int): Boolean =
    (rows(i * words + (j >>> 6)) & (1L << (j & 63))) != 0

  /** Algorithm 6's closed form: l-cliques of a 2-plex with f universal
    * vertices and p non-adjacent pairs, sum C(f,c1) C(p,c2) C(p-c2,c3).
    */
  private def count2Plex(f: Int, p: Int, l: Int): Long = {
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
    total
  }

  /** Algorithm 6: list l-cliques in a 2-plex via the F/L/R partition.
    *
    * F = `members(0 until f)` holds the universal vertices; the rest form
    * disjoint non-adjacent pairs (L(i), R(i)). An l-clique picks c1 vertices
    * of F plus one endpoint each of l - c1 pairs.
    */
  private def kC2Plex(
      stack: Array[Int], sp: Int, members: Array[Int], f: Int, cnt: Int,
      rows: Array[Long], words: Int, outer: Array[Int], l: Int, sink: CliqueSink
  ): Unit = {
    val p = (cnt - f) / 2
    if (f + p < l) return // line 2 of Algorithm 6: no l-clique fits
    // Each non-universal member misses exactly one other member: its pair,
    // recorded from the smaller end.
    val lBuf = new Array[Int](p)
    val rBuf = new Array[Int](p)
    var np = 0
    var i = f
    while (i < cnt) {
      val u = members(i)
      var j = f
      while (j < cnt && (members(j) == u || bit(rows, words, u, members(j)))) j += 1
      require(j < cnt, "2-plex invariant violated")
      if (u < members(j)) { lBuf(np) = u; rBuf(np) = members(j); np += 1 }
      i += 1
    }
    val pairIdx = Array.tabulate(p)(identity)
    var c1 = math.max(0, l - p)
    val c1Max = math.min(l, f)
    while (c1 <= c1Max) {
      val j = l - c1
      forEachCombination(members, f, c1) { (fs, fk) =>
        var q = 0
        while (q < fk) { stack(sp + q) = outer(fs(q)); q += 1 }
        if (j == 0) sink.onClique(stack, sp + l)
        else forEachCombination(pairIdx, p, j) { (ps, pk) =>
          // Bit q of `side` picks R(ps(q)) over L(ps(q)).
          var side = 0L
          while (side < (1L << pk)) {
            var q2 = 0
            while (q2 < pk) {
              val pair = ps(q2)
              stack(sp + fk + q2) = outer(if (((side >>> q2) & 1L) == 0) lBuf(pair) else rBuf(pair))
              q2 += 1
            }
            sink.onClique(stack, sp + l)
            side += 1
          }
        }
      }
      c1 += 1
    }
  }

  /** Algorithm 7: list l-cliques in a t-plex (t >= 3) by branching on the
    * inverse graph. I = `members(0 until nI)` is the set of universal
    * vertices: any remaining budget can be filled from I combinatorially at
    * every node.
    */
  private def kCtPlex(
      stack: Array[Int], sp: Int, members: Array[Int], nI: Int, cnt: Int,
      rows: Array[Long], words: Int, outer: Array[Int], l: Int, sink: CliqueSink
  ): Unit = {
    def emitWithI(sp2: Int, lRem: Int): Unit = {
      if (lRem == 0) { if (sink.wantsCliques) sink.onClique(stack, sp2) else sink.onCount(1L); return }
      if (nI >= lRem) {
        if (!sink.wantsCliques) sink.onCount(binomial(nI, lRem))
        else forEachCombination(members, nI, lRem) { (buf, k) =>
          var j = 0
          while (j < k) { stack(sp2 + j) = outer(buf(j)); j += 1 }
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
          if (bit(rows, words, v, cand(j))) { next(nn) = cand(j); nn += 1 }
          j += 1
        }
        if (nn + nI >= lNew) {
          stack(sp2) = outer(v)
          rec(next, nn, sp2 + 1, lNew)
        }
        idx += 1
      }
    }

    rec(java.util.Arrays.copyOfRange(members, nI, cnt), cnt - nI, sp, l)
  }
}
