package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import scala.collection.mutable
import scala.util.Random

/** Graph helpers that only tests use: the fixture generators (complete,
  * bipartite, cycles, paths, stars, trees, t-plexes, planted cliques,
  * disjoint unions), canonical edge tables (the form the DuckDB oracle
  * queries assume), synthetic Zipf and uniform edge generators, edge-table
  * statistics, neighbor-list copies and edge-id lookups.
  */
object TestGraphs {

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

  /** Canonicalizes an arbitrary (src, dst) edge table: `src < dst`,
    * deduplicated, no self-loops.
    */
  def canonicalize(edges: DataFrame): DataFrame =
    GraphDF.loopFree(edges)
      .select(
        least(col("src"), col("dst")).as("src"),
        greatest(col("src"), col("dst")).as("dst")
      )
      .distinct()

  /** Skewed random edges: both endpoints Zipf(alpha)-distributed over vertex
    * ranks, like the hub-heavy social/web graphs of the paper's testbed.
    */
  def zipfEdges(spark: SparkSession, nVertices: Long, nEdges: Long, alpha: Double, seed: Long): DataFrame = {
    val norm = (1L to math.min(nVertices, 10000L)).map(r => 1.0 / math.pow(r, alpha)).sum
    def draw(c: org.apache.spark.sql.Column) =
      least(lit(nVertices), greatest(lit(1L), pow(lit(1.0) / (c * norm + 1e-9), lit(1.0 / alpha)).cast("long"))) - 1
    canonicalize(
      spark.range(nEdges).select(draw(rand(seed)).as("src"), draw(rand(seed + 1)).as("dst"))
    )
  }

  /** Uniform random edges over `nVertices` vertices. */
  def uniformEdges(spark: SparkSession, nVertices: Long, nEdges: Long, seed: Long): DataFrame =
    canonicalize(
      spark
        .range(nEdges)
        .select(
          (rand(seed) * nVertices).cast("long").as("src"),
          (rand(seed + 1) * nVertices).cast("long").as("dst")
        )
    )

  /** (n, m, maxDegree) of a canonical edge table, computed in Catalyst. */
  def stats(edges: DataFrame): (Long, Long, Long) = {
    val e = edges
    val m = e.count()
    val degs = e.select(col("src").as("v")).unionAll(e.select(col("dst").as("v")))
      .groupBy("v").agg(count(lit(1)).as("deg"))
    val n = degs.count()
    val maxDeg = if (n == 0) 0L else degs.agg(max("deg")).head().getLong(0)
    (n, m, maxDeg)
  }

  /** Fresh copy of `v`'s sorted neighbor list. */
  def neighborsOf(g: LocalGraph, v: Int): Array[Int] =
    java.util.Arrays.copyOfRange(g.adj, g.offsets(v), g.offsets(v + 1))

  /** Undirected edge id of `(u, v)` in `g`, or -1 if the edge is absent. */
  def edgeIdOf(g: LocalGraph, u: Int, v: Int): Int = {
    val p = g.adjPos(u, v)
    if (p >= 0) g.adjEdgeIds(p) else -1
  }
}
