package repro.core

import repro.graph.SubgraphBuilder

/** A DAG over a (sub)graph, relabeled into *position space*: vertex p is the
  * p-th vertex of a vertex order, and every edge points to the larger
  * position. Under [[ColorDag.colorOrder]] (color descending, ties by id
  * ascending — Section 4.3) `colors` is non-increasing with position. This is
  * the int-row form the array VBBkC baselines recurse on, read off a
  * [[BitDag]] by [[ColorDag.fromBits]].
  *
  * Besides the rows, the DAG owns the l = 2 base case of every recursion
  * over it; the l = 1 base case is [[BitDag.emitSingles]] over an id list.
  * Each writes the clique's last vertices into `stack` from `sp` on, mapped
  * through `toOuter`.
  *
  * @param out      out-neighbors (larger positions), sorted ascending
  * @param colors   color of each position; 0 for orders without colors
  * @param toOuter  position -> caller's vertex id (for emission)
  */
final class ColorDag(
    val s: Int,
    val out: Array[Array[Int]],
    val colors: Array[Int],
    val toOuter: Array[Int]
) {

  /** Rule (2)'s test: whether the positions in `c` carry at least `need`
    * distinct colors. `c` is sorted and colors are non-increasing with
    * position, so each new color is a transition, and the scan stops at the
    * `need`-th one. The recursions test it only where the child still
    * branches (need >= 3): below that it cannot prune, since one color class
    * holds no DAG edge and every non-empty set has one color.
    */
  def hasColors(c: Array[Int], need: Int): Boolean = {
    var seen = 0
    var last = -1
    var i = 0
    while (i < c.length && seen < need) {
      val col = colors(c(i))
      if (col != last) { seen += 1; last = col }
      i += 1
    }
    seen >= need
  }

  /** The number of DAG edges inside `c`: the l = 2 leaf count. */
  def pairsIn(c: Array[Int]): Long = {
    var total = 0L
    var i = 0
    while (i < c.length) { total += IntArrays.intersectionSize(c, out(c(i))); i += 1 }
    total
  }

  /** The l = 2 base case: every DAG edge inside `c` completes a clique. In
    * counting mode the sink gets one count for the whole branch.
    */
  def emitPairs(c: Array[Int], stack: Array[Int], sp: Int, sink: CliqueSink): Unit = {
    if (!sink.wantsCliques) { sink.onCount(pairsIn(c)); return }
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
  }
}

/** [[ColorDag]] with `Long` bitset rows of `words` words each: the candidate
  * representation of every bitset recursion (EBBkC-H's branch graphs of at
  * most tau vertices, EBBkC-C's edge subproblems and the SDegree/BitCol
  * baselines). Rows are flat: row p of `out` or `und` is the `words` words
  * from `p * words` on. Candidate sets are bitsets over positions whose
  * first `words` words are read. For a DAG of at most 64 positions,
  * `pairsIn` and `hasColors` (the helpers on the counting path of the
  * one-word recursion) also take the set as one `Long`.
  *
  * One instance per kernel, rebuilt in place for each subproblem: [[load]]
  * reads a [[SubgraphBuilder]]'s edge list into rows over its local ids, a
  * word-row order of [[ColorDag]] fills `order` (and `localColors`), and
  * [[ColorDag.buildBits]] relabels the rows into position space. Arrays
  * only grow, so a rebuild allocates nothing once the largest subproblem
  * has been seen.
  */
final class BitDag {
  var s = 0
  var words = 0
  /** Out-neighbors (larger positions) and all neighbors of each position. */
  var out, und = Array.emptyLongArray
  /** Color of each position; 0 when built without colors. */
  var colors = Array.emptyIntArray
  /** Position -> caller's vertex id. */
  var toOuter = Array.emptyIntArray
  /** The full set `0 until s` (local ids, then positions), in `words` words. */
  var full = Array.emptyLongArray
  // Build scratch over the loaded graph's local ids: its rows (stride
  // `words`), a vertex order (position -> local id), the local colors (or
  // degrees, while an order is computed) and the greedy color classes
  // (stride `words`); positions and packed sort keys.
  var rows = Array.emptyLongArray
  var order, localColors = Array.emptyIntArray
  private[core] var classes = Array.emptyLongArray
  private[core] var posOf = Array.emptyIntArray
  private[core] var packed = Array.emptyLongArray

  /** Sizes the DAG for the `n` vertices of `sub`'s last build, loads their
    * adjacency into `rows` (row i has bit j set iff i ~ j) and fills
    * [[full]].
    */
  def load(sub: SubgraphBuilder, n: Int): Unit = {
    s = n
    words = (n + 63) >>> 6
    if (rows.length < n * words) {
      rows = new Array[Long](n * words); out = new Array[Long](n * words)
      und = new Array[Long](n * words); classes = new Array[Long](n * words)
      full = new Array[Long](words)
    }
    if (order.length < n) {
      order = new Array[Int](n); localColors = new Array[Int](n); colors = new Array[Int](n)
      toOuter = new Array[Int](n); posOf = new Array[Int](n); packed = new Array[Long](n)
    }
    java.util.Arrays.fill(rows, 0, n * words, 0L)
    var e = 0
    while (e < sub.numEdges) {
      val a = sub.ends(2 * e); val b = sub.ends(2 * e + 1)
      rows(a * words + (b >>> 6)) |= 1L << (b & 63)
      rows(b * words + (a >>> 6)) |= 1L << (a & 63)
      e += 1
    }
    BitDag.fillAll(full, n)
  }

  /** [[ColorDag#hasColors]] for the bitset `c`. */
  def hasColors(c: Array[Long], need: Int): Boolean = {
    var seen = 0
    var last = -1
    var w = 0
    while (w < words && seen < need) {
      var bits = c(w)
      while (bits != 0 && seen < need) {
        val col = colors((w << 6) + java.lang.Long.numberOfTrailingZeros(bits))
        bits &= bits - 1
        if (col != last) { seen += 1; last = col }
      }
      w += 1
    }
    seen >= need
  }

  /** [[hasColors]] for the one-word set `c`. */
  def hasColors(c: Long, need: Int): Boolean = {
    var seen = 0
    var last = -1
    var bits = c
    while (bits != 0 && seen < need) {
      val col = colors(java.lang.Long.numberOfTrailingZeros(bits))
      bits &= bits - 1
      if (col != last) { seen += 1; last = col }
    }
    seen >= need
  }

  /** Early termination (Section 5) of the branch on the bitset `c` of `cnt`
    * positions with `l` vertices left to pick: true iff the branch graph is
    * a t-plex, in which case its l-cliques went to `sink`. `t` = 0 turns it
    * off. The plex test runs on `und` as it is.
    */
  def tryEarlyTerminate(
      c: Array[Long], cnt: Int, l: Int, t: Int, stack: Array[Int], sp: Int, sink: CliqueSink): Boolean =
    t > 0 && l >= 3 && PlexListers.tryEarlyTerminate(stack, sp, c, cnt, und, words, toOuter, l, t, sink)

  /** The l = 1 base case on the bitset `c` of `cnt` positions. */
  def emitSingles(c: Array[Long], cnt: Int, stack: Array[Int], sp: Int, sink: CliqueSink): Unit =
    BitDag.emitSingles(c, cnt, words, toOuter, stack, sp, sink)

  /** [[ColorDag#pairsIn]] for the bitset `c`: one popcount per member and
    * word. Out-rows point only to larger positions, so a member's row is
    * read from the member's own word on.
    */
  def pairsIn(c: Array[Long]): Long = {
    var total = 0L
    var w = 0
    while (w < words) {
      var bits = c(w)
      while (bits != 0) {
        val row = ((w << 6) + java.lang.Long.numberOfTrailingZeros(bits)) * words
        bits &= bits - 1
        var ww = w
        while (ww < words) { total += java.lang.Long.bitCount(c(ww) & out(row + ww)); ww += 1 }
      }
      w += 1
    }
    total
  }

  /** [[pairsIn]] for the one-word set `c` of a one-word DAG: one popcount
    * per member.
    */
  def pairsIn(c: Long): Long = {
    var total = 0L
    var bits = c
    while (bits != 0) {
      total += java.lang.Long.bitCount(c & out(java.lang.Long.numberOfTrailingZeros(bits)))
      bits &= bits - 1
    }
    total
  }

  /** [[ColorDag#emitPairs]] for the bitset `c`. */
  def emitPairs(c: Array[Long], stack: Array[Int], sp: Int, sink: CliqueSink): Unit = {
    if (!sink.wantsCliques) { sink.onCount(pairsIn(c)); return }
    var w = 0
    while (w < words) {
      var bits = c(w)
      while (bits != 0) {
        val u = (w << 6) + java.lang.Long.numberOfTrailingZeros(bits)
        bits &= bits - 1
        var ww = w
        while (ww < words) {
          var bits2 = c(ww) & out(u * words + ww)
          while (bits2 != 0) {
            val v = (ww << 6) + java.lang.Long.numberOfTrailingZeros(bits2)
            bits2 &= bits2 - 1
            stack(sp) = toOuter(u); stack(sp + 1) = toOuter(v)
            sink.onClique(stack, sp + 2)
          }
          ww += 1
        }
      }
      w += 1
    }
  }
}

object BitDag {

  /** The l = 1 base case on the `cnt` members of the bitset `c` of `words`
    * words: each completes a clique, emitted through `outer`.
    */
  def emitSingles(
      c: Array[Long], cnt: Int, words: Int, outer: Array[Int], stack: Array[Int], sp: Int, sink: CliqueSink): Unit = {
    if (!sink.wantsCliques) { sink.onCount(cnt); return }
    var w = 0
    while (w < words) {
      var bits = c(w)
      while (bits != 0) {
        stack(sp) = outer((w << 6) + java.lang.Long.numberOfTrailingZeros(bits))
        bits &= bits - 1
        sink.onClique(stack, sp + 1)
      }
      w += 1
    }
  }

  /** The l = 1 base case on the first `n` ids of the list `ids`: each
    * completes a clique, emitted through `outer` when that is non-null.
    */
  def emitSingles(ids: Array[Int], n: Int, outer: Array[Int], stack: Array[Int], sp: Int, sink: CliqueSink): Unit =
    if (!sink.wantsCliques) sink.onCount(n)
    else {
      var i = 0
      while (i < n) {
        stack(sp) = if (outer == null) ids(i) else outer(ids(i))
        sink.onClique(stack, sp + 1)
        i += 1
      }
    }

  /** Sets the first `(n + 63) / 64` words of `row` to the full set `0 until n`. */
  def fillAll(row: Array[Long], n: Int): Unit = {
    var i = 0
    while (i < ((n + 63) >>> 6)) { row(i) = if (i < (n >>> 6)) -1L else (1L << (n & 63)) - 1; i += 1 }
  }
}

/** The word-row color-DAG recursion over `dag` (Algorithm 1 on bitset
  * candidate sets) of the SDegree/BitCol baselines (`stride` 1) and of
  * EBBkC-H/C's DAGs of more than 64 vertices (`stride` 2): an edge branch
  * (u -> v) of Algorithms 4/5 is u's step, then v's, each under Rule (1).
  * ET and Rule (2) run only at stack depths that are multiples of `stride`.
  * `colored` stops each step at the first member of color below l. A
  * counting node at l = 3 sums its children's pairs in place; a color-1
  * vertex has no out-neighbors, so EBBkC's l = 4 totals are unchanged.
  */
final class DagBranch(dag: BitDag, stack: Array[Int], rule2: Boolean, etT: Int, stride: Int, colored: Boolean) {
  // Candidate rows per stack depth: the node at depth sp builds each child
  // in rows(sp); the entry node reads `dag.full`, and no node writes its own
  // set. Rows grow only when a DAG needs more words: branching allocates
  // nothing.
  private val rows = Array.fill(stack.length)(Array.emptyLongArray)
  private val inStep = stride - 1 // depth bits that mark a node inside a step

  /** Branches on all of `dag` with `l` vertices left to pick, from stack
    * depth `sp` on; `et` probes ET on the full set first. Grows the rows to
    * `dag.words` words first.
    */
  def run(l: Int, sp: Int, et: Boolean, sink: CliqueSink): Unit = {
    if (rows(0).length < dag.words) for (i <- rows.indices) rows(i) = new Array[Long](dag.words)
    rec(dag.full, dag.s, l, sp, et && etT > 0, sink)
  }

  // `et` already holds `etT > 0`, so with ET off the probe costs one flag test.
  private def rec(c: Array[Long], cnt: Int, l: Int, sp: Int, et: Boolean, sink: CliqueSink): Unit = {
    if (cnt < l) return
    if (et && dag.tryEarlyTerminate(c, cnt, l, etT, stack, sp, sink)) return
    if (l == 1) { dag.emitSingles(c, cnt, stack, sp, sink); return }
    if (l == 2) { dag.emitPairs(c, stack, sp, sink); return }
    val leaves = l == 3 && !sink.wantsCliques
    val node = ((sp + 1) & inStep) == 0 // whether the children are framework nodes
    val words = dag.words
    val out = dag.out
    val colors = dag.colors
    val cNext = rows(sp)
    var total = 0L
    var live = true
    var w = 0
    while (w < words && live) {
      var bits = c(w)
      while (bits != 0 && live) {
        val u = (w << 6) + java.lang.Long.numberOfTrailingZeros(bits)
        bits &= bits - 1
        if (colored && colors(u) < l) live = false // positions ascend, colors descend
        else {
          var cntNext = 0
          var ww = 0
          while (ww < words) {
            cNext(ww) = c(ww) & out(u * words + ww); cntNext += java.lang.Long.bitCount(cNext(ww)); ww += 1
          }
          if (leaves) { if (cntNext >= 2) total += dag.pairsIn(cNext) }
          else if (cntNext >= l - 1 && (!rule2 || !node || l - 1 < 3 || dag.hasColors(cNext, l - 1))) { // Rule (2)
            stack(sp) = dag.toOuter(u)
            rec(cNext, cntNext, l - 1, sp + 1, node && etT > 0, sink)
          }
        }
      }
      w += 1
    }
    if (total > 0) sink.onCount(total)
  }
}

/** The one builder of position-space DAGs. It reads the rows a [[BitDag]]
  * loaded, orders them (identity, degree or color order) and writes the
  * position-space rows into that DAG's scratch with [[buildBits]]. The
  * bitset recursions read the [[BitDag]] itself; the int-array baselines
  * read its out-rows through [[fromBits]].
  */
object ColorDag {

  /** Inverse of `order`: dense id -> position. */
  def positionsOf(order: Array[Int]): Array[Int] = {
    val posOf = new Array[Int](order.length)
    var p = 0
    while (p < order.length) { posOf(order(p)) = p; p += 1 }
    posOf
  }

  /** The int-row form of the DAG `dag` holds: each position's out-row as an
    * ascending `Array[Int]`, with `dag`'s colors and outer ids shared.
    */
  def fromBits(dag: BitDag): ColorDag = {
    val words = dag.words
    val out = new Array[Array[Int]](dag.s)
    var p = 0
    while (p < dag.s) {
      var cnt = 0
      var w = p * words
      while (w < (p + 1) * words) { cnt += java.lang.Long.bitCount(dag.out(w)); w += 1 }
      val row = new Array[Int](cnt)
      cnt = 0
      w = 0
      while (w < words) {
        var bits = dag.out(p * words + w)
        while (bits != 0) { row(cnt) = (w << 6) + java.lang.Long.numberOfTrailingZeros(bits); bits &= bits - 1; cnt += 1 }
        w += 1
      }
      out(p) = row
      p += 1
    }
    new ColorDag(dag.s, out, dag.colors, dag.toOuter)
  }

  /** The identity order of the graph `dag` loaded, in `dag.order`. */
  def identityOrder(dag: BitDag): Array[Int] = {
    var i = 0
    while (i < dag.s) { dag.order(i) = i; i += 1 }
    dag.order
  }

  /** The vertices of the graph `dag` loaded by degree descending, ties by
    * id ascending, in `dag.order`: each degree is a row's popcount, kept in
    * `dag.localColors`.
    */
  def degreeOrder(dag: BitDag): Array[Int] = {
    val words = dag.words
    val rows = dag.rows
    val deg = dag.localColors
    var x = 0
    while (x < dag.s) {
      var d = 0
      var w = x * words
      while (w < (x + 1) * words) { d += java.lang.Long.bitCount(rows(w)); w += 1 }
      deg(x) = d
      x += 1
    }
    IntArrays.orderByKeyDesc(deg, dag.s, dag.packed, dag.order)
  }

  /** The local color order of Section 4.3 of the graph `dag` loaded: a
    * greedy coloring in [[degreeOrder]], then positions by color descending,
    * ties by id ascending. The order goes to `dag.order`, the colors
    * (1-based) to `dag.localColors`. Each vertex, in degree order, joins the
    * first color class that holds none of its neighbors: the smallest color
    * absent from them.
    */
  def colorOrder(dag: BitDag): Array[Int] = {
    val s = dag.s
    val words = dag.words
    val rows = dag.rows
    val classes = dag.classes
    val colors = dag.localColors
    val byDegree = degreeOrder(dag)
    var numColors = 0
    var i = 0
    while (i < s) {
      val x = byDegree(i)
      var c = 0
      while (c < numColors && intersects(classes, c * words, rows, x * words, words)) c += 1
      if (c == numColors) { java.util.Arrays.fill(classes, c * words, (c + 1) * words, 0L); numColors += 1 }
      classes(c * words + (x >>> 6)) |= 1L << (x & 63)
      colors(x) = c + 1
      i += 1
    }
    IntArrays.orderByKeyDesc(colors, s, dag.packed, dag.order)
  }

  /** Whether the `words` words of `a` from `i` and of `b` from `j` share a bit. */
  private def intersects(a: Array[Long], i: Int, b: Array[Long], j: Int, words: Int): Boolean = {
    var w = 0
    while (w < words && (a(i + w) & b(j + w)) == 0) w += 1
    w < words
  }

  /** Relabels the rows `dag` loaded into position space by walking their
    * set bits. `order` (position -> local id) and `colors` (may be null)
    * are over local ids; position p's caller id is `verts(order(p))`,
    * mapped through `outer` when that is non-null.
    */
  def buildBits(dag: BitDag, order: Array[Int], colors: Array[Int], verts: Array[Int], outer: Array[Int]): Unit = {
    val s = dag.s
    val words = dag.words
    val rows = dag.rows
    val out = dag.out
    val und = dag.und
    val posOf = dag.posOf
    var p = 0
    while (p < s) { posOf(order(p)) = p; p += 1 }
    java.util.Arrays.fill(out, 0, s * words, 0L)
    java.util.Arrays.fill(und, 0, s * words, 0L)
    p = 0
    while (p < s) {
      val x = order(p)
      var w = 0
      while (w < words) {
        var bits = rows(x * words + w)
        while (bits != 0) {
          val q = posOf((w << 6) + java.lang.Long.numberOfTrailingZeros(bits))
          bits &= bits - 1
          und(p * words + (q >>> 6)) |= 1L << (q & 63)
          if (q > p) out(p * words + (q >>> 6)) |= 1L << (q & 63)
        }
        w += 1
      }
      dag.colors(p) = if (colors == null) 0 else colors(x)
      dag.toOuter(p) = if (outer == null) verts(x) else outer(verts(x))
      p += 1
    }
  }
}
