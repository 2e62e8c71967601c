package repro.graph

import java.util.Arrays

/** Immutable undirected simple graph in CSR (compressed sparse row) form.
  *
  * Vertices are dense ints in `0 until n`. Neighbor lists are sorted, so an
  * adjacency test is `O(log deg)` and a sorted run of ids is looked up in a
  * list by galloping search ([[probe]]).
  * Every undirected edge has a single id in `0 until m` (assigned in
  * lexicographic `(u, v)` order with `u < v`); `adjEdgeIds` is parallel to
  * `adj` so kernels can look up the id — and hence the truss rank — of the
  * edge being traversed in `O(1)` once a neighbor's position is known.
  *
  * The class is `Serializable` so a prepared graph can be broadcast to Spark
  * executors for subgraph-centric k-clique listing.
  */
final class LocalGraph private (
    val n: Int,
    val offsets: Array[Int],
    val adj: Array[Int],
    val adjEdgeIds: Array[Int],
    val edgeU: Array[Int],
    val edgeV: Array[Int]
) extends Serializable {

  /** Number of undirected edges. */
  def m: Int = edgeU.length

  @inline def degree(v: Int): Int = offsets(v + 1) - offsets(v)

  /** Position of `v` in `u`'s sorted neighbor slice of `adj`, or negative if absent. */
  @inline def adjPos(u: Int, v: Int): Int =
    Arrays.binarySearch(adj, offsets(u), offsets(u + 1), v)

  @inline def hasEdge(u: Int, v: Int): Boolean = u != v && adjPos(u, v) >= 0

  /** Start of `v`'s out-suffix in `adj`: the first position whose neighbor
    * exceeds `v` (binary-searched; `v` is never its own neighbor).
    */
  @inline def outStart(v: Int): Int = -Arrays.binarySearch(adj, offsets(v), offsets(v + 1), v) - 1

  /** Finds the ascending run `ids(from until until)` in `a`'s list; returns
    * the number h of neighbors found, the i-th at `ids(hitIdx(i))` and `adj`
    * position `hitPos(i)`. Both sides gallop from the last match, so a hub's
    * list is searched, never walked: the cost follows the shorter side.
    */
  def probe(a: Int, ids: Array[Int], from: Int, until: Int, hitIdx: Array[Int], hitPos: Array[Int]): Int = {
    var p = offsets(a)
    val hi = offsets(a + 1)
    var j = from
    var h = 0
    while (p < hi && j < until) {
      val x = adj(p); val y = ids(j)
      if (x == y) { hitIdx(h) = j; hitPos(h) = p; h += 1; p += 1; j += 1 }
      else if (x < y) p = LocalGraph.gallop(adj, p + 1, hi, y)
      else j = LocalGraph.gallop(ids, j + 1, until, x)
    }
    h
  }

  lazy val maxDegree: Int = {
    var best = 0; var v = 0
    while (v < n) { val d = degree(v); if (d > best) best = d; v += 1 }
    best
  }

  /** Iterator over canonical `(u, v)` pairs with `u < v`, in edge-id order. */
  def edges: Iterator[(Int, Int)] = (0 until m).iterator.map(e => (edgeU(e), edgeV(e)))

  /** Rough in-memory footprint of the CSR arrays, for the space-cost table. */
  def approxBytes: Long =
    4L * (offsets.length + adj.length + adjEdgeIds.length + edgeU.length + edgeV.length)

  /** The graph with vertex `i` renamed to `perm(i)`; `perm` must be a bijection. */
  def relabel(perm: Array[Int]): LocalGraph = {
    require(perm.length == n, "perm must cover all vertices")
    LocalGraph.fromEdges(n, (0 until m).iterator.map(e => (perm(edgeU(e)), perm(edgeV(e)))))
  }
}

object LocalGraph {

  /** The most edges a graph may have: its adjacency arrays hold 2m Int
    * entries, and 2m must stay a valid JVM array length (Int.MaxValue - 8,
    * the bound `java.util.ArrayList` keeps). Just under 2^30, because 2 * 2^30
    * already wraps an Int.
    */
  val MaxEdges: Int = (Int.MaxValue - 8) / 2

  /** Fails loudly on an edge count past [[MaxEdges]]; checked before any
    * array of 2m entries is allocated.
    */
  def requireEdgeCount(m: Long): Unit =
    require(m <= MaxEdges, s"$m edges exceed the supported maximum of $MaxEdges (2m Int-indexed adjacency entries)")

  /** The first index in `from until hi` whose value in the ascending `arr`
    * is at least `x`, or `hi`: doubling steps from `from`, then bisection, so
    * a gap of g entries costs O(log g).
    */
  private def gallop(arr: Array[Int], from: Int, hi: Int, x: Int): Int = {
    var lo = from - 1 // every entry up to lo is below x
    var step = 1
    while (step < hi - lo && arr(lo + step) < x) { lo += step; step <<= 1 }
    var p = if (step < hi - lo) lo + step else hi
    lo += 1
    while (lo < p) { val mid = (lo + p) >>> 1; if (arr(mid) < x) lo = mid + 1 else p = mid }
    lo
  }

  /** Builds a graph from a possibly-dirty edge list: self-loops are dropped,
    * duplicates and reversed copies are merged. `n` fixes the vertex-id space.
    */
  def fromEdges(n: Int, pairs: IterableOnce[(Int, Int)]): LocalGraph = {
    val packed = pairs.iterator.collect { case (a, b) if a != b =>
      val u = math.min(a, b); val v = math.max(a, b)
      require(u >= 0 && v < n, s"vertex out of range: ($a,$b) with n=$n")
      (u.toLong << 32) | (v.toLong & 0xffffffffL)
    }.toArray
    Arrays.sort(packed)

    var m = 0
    var i = 0
    while (i < packed.length) {
      if (i == 0 || packed(i) != packed(i - 1)) { packed(m) = packed(i); m += 1 }
      i += 1
    }
    requireEdgeCount(m)

    val edgeU = new Array[Int](m)
    val edgeV = new Array[Int](m)
    val deg = new Array[Int](n)
    i = 0
    while (i < m) {
      val u = (packed(i) >>> 32).toInt
      val v = (packed(i) & 0xffffffffL).toInt
      edgeU(i) = u; edgeV(i) = v
      deg(u) += 1; deg(v) += 1
      i += 1
    }

    val offsets = new Array[Int](n + 1)
    i = 0
    while (i < n) { offsets(i + 1) = offsets(i) + deg(i); i += 1 }

    val adj = new Array[Int](2 * m)
    val adjEdgeIds = new Array[Int](2 * m)
    val cursor = Arrays.copyOf(offsets, n)
    // Filling in ascending edge-id (lexicographic) order leaves every
    // neighbor list sorted: for a fixed u the v's ascend, and for a fixed v
    // the u's ascend because edges are sorted by u first.
    var e = 0
    while (e < m) {
      val u = edgeU(e); val v = edgeV(e)
      adj(cursor(u)) = v; adjEdgeIds(cursor(u)) = e; cursor(u) += 1
      adj(cursor(v)) = u; adjEdgeIds(cursor(v)) = e; cursor(v) += 1
      e += 1
    }
    new LocalGraph(n, offsets, adj, adjEdgeIds, edgeU, edgeV)
  }

  /** The empty graph on `n` vertices. */
  def empty(n: Int): LocalGraph = fromEdges(n, Iterator.empty)
}

/** The one builder of subproblem graphs: the subgraph of `g` induced on an
  * ascending vertex set, optionally keeping only the edges ranked after a
  * cutoff. Each induced edge is found once, from its smaller endpoint, by
  * probing the later members against that endpoint's list, so a member
  * costs about min(its degree, the members after it) lookups and no build
  * walks a hub's whole list. [[build]] leaves an edge list, which
  * [[repro.core.BitDag.load]] reads as bitset adjacency rows. Holds scratch
  * arrays: one instance per kernel.
  */
final class SubgraphBuilder(g: LocalGraph) {
  private var hitIdx, hitPos = new Array[Int](64)
  /** The last build's `numEdges` kept edges, in (i, j) order: the global
    * id of edge e at `edgeIds(e)`, its local endpoints i < j at `ends(2e)`
    * and `ends(2e + 1)`.
    */
  var numEdges = 0
  var edgeIds = new Array[Int](64)
  var ends = new Array[Int](128)

  /** Collects the edges of the subgraph induced on the ascending
    * `verts(0 until s)`, over local ids (vertex i is `verts(i)`). With
    * `rank` non-null only the edges f with `rank(f) > r` are kept.
    */
  def build(verts: Array[Int], s: Int, rank: Array[Int], r: Int): Unit = {
    if (hitIdx.length < s) { hitIdx = new Array[Int](s); hitPos = new Array[Int](s) }
    var ne = 0
    var i = 0
    while (i < s) {
      val h = g.probe(verts(i), verts, i + 1, s, hitIdx, hitPos)
      var t = 0
      while (t < h) {
        val f = g.adjEdgeIds(hitPos(t))
        if (rank == null || rank(f) > r) {
          if (ne == edgeIds.length) { edgeIds = Arrays.copyOf(edgeIds, 2 * ne); ends = Arrays.copyOf(ends, 4 * ne) }
          edgeIds(ne) = f; ends(2 * ne) = i; ends(2 * ne + 1) = hitIdx(t); ne += 1
        }
        t += 1
      }
      i += 1
    }
    numEdges = ne
  }
}
