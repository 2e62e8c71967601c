package repro.graph

import scala.collection.mutable
import scala.util.Random

/** Deterministic synthetic graph generators.
  *
  * The paper evaluates on 19 real graphs from the Network Repository; those
  * are not available offline, so every experiment here runs on synthetic
  * stand-ins assembled from these primitives (see [[SynthGraphs]] and
  * DESIGN.md for the substitution argument). All generators are pure in
  * `(params, seed)` so tests, the DuckDB oracle, and benches see identical
  * graphs.
  */
object GraphGen {

  /** Complete graph K_n. */
  def complete(n: Int): LocalGraph =
    LocalGraph.fromEdges(n, for (u <- 0 until n; v <- u + 1 until n) yield (u, v))

  /** Complete bipartite graph K_{p,q}: sides `0 until p` and `p until p+q`. */
  def completeBipartite(p: Int, q: Int): LocalGraph =
    LocalGraph.fromEdges(p + q, for (u <- 0 until p; v <- p until p + q) yield (u, v))

  /** Cycle C_n (n >= 3). */
  def cycle(n: Int): LocalGraph = {
    require(n >= 3, "cycle needs n >= 3")
    LocalGraph.fromEdges(n, (0 until n).map(i => (i, (i + 1) % n)))
  }

  /** Path P_n. */
  def path(n: Int): LocalGraph =
    LocalGraph.fromEdges(n, (0 until n - 1).map(i => (i, i + 1)))

  /** Star with center 0 and n-1 leaves. */
  def star(n: Int): LocalGraph =
    LocalGraph.fromEdges(n, (1 until n).map(i => (0, i)))

  /** Uniform random recursive tree. */
  def randomTree(n: Int, seed: Long): LocalGraph = {
    val rnd = new Random(seed)
    LocalGraph.fromEdges(n, (1 until n).map(i => (rnd.nextInt(i), i)))
  }

  /** G(n, m): exactly `m` distinct uniform random edges (m must fit). */
  def gnm(n: Int, m: Int, seed: Long): LocalGraph = {
    val maxM = n.toLong * (n - 1) / 2
    require(m <= maxM, s"m=$m exceeds ${maxM} possible edges")
    val rnd = new Random(seed)
    val seen = mutable.HashSet.empty[Long]
    val us = new Array[Int](m); val vs = new Array[Int](m)
    var i = 0
    while (i < m) {
      val a = rnd.nextInt(n); val b = rnd.nextInt(n)
      if (a != b) {
        val u = math.min(a, b); val v = math.max(a, b)
        val key = (u.toLong << 32) | v
        if (seen.add(key)) { us(i) = u; vs(i) = v; i += 1 }
      }
    }
    LocalGraph.fromEdges(n, us.indices.iterator.map(i => (us(i), vs(i))))
  }

  /** G(n, p): Bernoulli edges; only for small n (quadratic scan). */
  def gnp(n: Int, p: Double, seed: Long): LocalGraph = {
    require(n <= 5000, "gnp scans all pairs; use gnm for larger n")
    val rnd = new Random(seed)
    val buf = mutable.ArrayBuffer.empty[(Int, Int)]
    var u = 0
    while (u < n) {
      var v = u + 1
      while (v < n) { if (rnd.nextDouble() < p) buf += ((u, v)); v += 1 }
      u += 1
    }
    LocalGraph.fromEdges(n, buf)
  }

  /** Skewed-degree random graph: one endpoint drawn from a Zipf(alpha)
    * distribution over vertex ranks, the other uniformly. This yields the
    * hub-heavy degree profile of the paper's social/web graphs (huge max
    * degree) without top ranks collapsing into a quasi-clique — drawing
    * *both* endpoints zipf makes hub pairs so likely that a spurious dense
    * core dominates omega/tau, which no real testbed graph exhibits.
    * Produces at most `m` edges (duplicates collapse).
    */
  def powerLaw(n: Int, m: Int, alpha: Double, seed: Long): LocalGraph = {
    val rnd = new Random(seed)
    // Inverse-CDF sampling over cumulative Zipf weights.
    val weights = new Array[Double](n)
    var acc = 0.0
    var i = 0
    while (i < n) { acc += 1.0 / math.pow(i + 1.0, alpha); weights(i) = acc; i += 1 }
    def drawZipf(): Int = {
      val x = rnd.nextDouble() * acc
      var lo = 0; var hi = n - 1
      while (lo < hi) { val mid = (lo + hi) >>> 1; if (weights(mid) < x) lo = mid + 1 else hi = mid }
      lo
    }
    val seen = mutable.HashSet.empty[Long]
    val buf = mutable.ArrayBuffer.empty[(Int, Int)]
    var attempts = 0L
    val maxAttempts = 20L * m
    while (buf.length < m && attempts < maxAttempts) {
      val a = drawZipf(); val b = rnd.nextInt(n)
      if (a != b) {
        val u = math.min(a, b); val v = math.max(a, b)
        if (seen.add((u.toLong << 32) | v)) buf += ((u, v))
      }
      attempts += 1
    }
    LocalGraph.fromEdges(n, buf)
  }

  /** A t-plex on n vertices: K_n minus (t-1) random perfect matchings, so
    * every vertex keeps at least n - t neighbors (at most t non-neighbors
    * counting itself). With t = 1 this is K_n.
    */
  def tPlex(n: Int, t: Int, seed: Long): LocalGraph = {
    require(t >= 1, "t >= 1")
    val rnd = new Random(seed)
    val removed = mutable.HashSet.empty[Long]
    for (_ <- 1 until t) {
      val perm = rnd.shuffle((0 until n).toVector)
      var i = 0
      while (i + 1 < n) {
        val u = math.min(perm(i), perm(i + 1)); val v = math.max(perm(i), perm(i + 1))
        removed += ((u.toLong << 32) | v)
        i += 2
      }
    }
    LocalGraph.fromEdges(
      n,
      for {
        u <- 0 until n; v <- u + 1 until n
        if !removed.contains((u.toLong << 32) | v)
      } yield (u, v)
    )
  }

  /** A 2-plex built explicitly as K_n minus `numPairs` disjoint non-edges
    * (pairs (0,1), (2,3), ...). Used to exercise kC2Plex's F/L/R partition.
    */
  def twoPlexWithPairs(n: Int, numPairs: Int): LocalGraph = {
    require(2 * numPairs <= n, "pairs must be disjoint")
    val removed = (0 until numPairs).map(i => (2L * i << 32) | (2L * i + 1)).toSet
    LocalGraph.fromEdges(
      n,
      for {
        u <- 0 until n; v <- u + 1 until n
        if !removed.contains((u.toLong << 32) | v)
      } yield (u, v)
    )
  }

  /** Union of `g` with cliques planted on the given vertex subsets. */
  def plantCliques(g: LocalGraph, cliques: Seq[Seq[Int]]): LocalGraph = {
    val extra = cliques.iterator.flatMap { vs =>
      for (i <- vs.indices.iterator; j <- (i + 1 until vs.length).iterator) yield (vs(i), vs(j))
    }
    LocalGraph.fromEdges(g.n, g.edges ++ extra)
  }

  /** Plants `count` cliques of size `size` on random vertex subsets of `g`. */
  def plantRandomCliques(g: LocalGraph, count: Int, size: Int, seed: Long): LocalGraph = {
    val rnd = new Random(seed)
    val cliques = (0 until count).map { _ =>
      val chosen = mutable.LinkedHashSet.empty[Int]
      while (chosen.size < size) chosen += rnd.nextInt(g.n)
      chosen.toSeq
    }
    plantCliques(g, cliques)
  }

  /** Disjoint union: vertices of `b` are shifted by `a.n`. */
  def disjointUnion(a: LocalGraph, b: LocalGraph): LocalGraph =
    LocalGraph.fromEdges(a.n + b.n, a.edges ++ b.edges.map { case (u, v) => (u + a.n, v + a.n) })
}
