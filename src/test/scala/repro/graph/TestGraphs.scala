package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Graph helpers that only tests use: canonical edge tables (the form the
  * DuckDB oracle queries assume), synthetic Zipf and uniform edge
  * generators, edge-table statistics, neighbor-list copies and edge-id lookups.
  */
object TestGraphs {

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
