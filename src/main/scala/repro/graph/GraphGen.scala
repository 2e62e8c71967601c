package repro.graph

import scala.collection.mutable
import scala.util.Random

/** Deterministic random graph generators: the substrate of the
  * [[SynthGraphs]] stand-ins.
  *
  * The paper evaluates on 19 real graphs from the Network Repository; those
  * are not available offline, so every experiment here runs on synthetic
  * stand-ins assembled from these three generators (see DESIGN.md for the
  * substitution argument). All are pure in `(params, seed)` so tests, the
  * DuckDB oracle, and benches see identical graphs. The fixture generators
  * of the tests (K_n, t-plexes, planted cliques, ...) are test-scope, in
  * `TestGraphs`.
  */
object GraphGen {

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
}
