package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** DataFrame-side graph plumbing: canonical undirected edge tables, synthetic
  * (Zipf and uniform) edge generators, and conversions to/from the in-core
  * [[LocalGraph]] used by kernels.
  *
  * Canonical form, which [[canonicalize]] and the generators produce:
  * columns `src`, `dst` (long) with `src < dst`, deduplicated, no self-loops
  * — the same convention the DuckDB oracle queries assume. [[toLocal]]
  * accepts any (src, dst) table and canonicalizes on the driver.
  */
object GraphDF {

  /** Canonicalizes an arbitrary (src, dst) edge table. */
  def canonicalize(edges: DataFrame): DataFrame =
    loopFree(edges)
      .select(
        least(col("src"), col("dst")).as("src"),
        greatest(col("src"), col("dst")).as("dst")
      )
      .distinct()

  /** The (src, dst) columns as longs, self-loops dropped: a narrow
    * projection, no shuffle.
    */
  private def loopFree(edges: DataFrame): DataFrame =
    edges.select(col("src").cast("long").as("src"), col("dst").cast("long").as("dst"))
      .where(col("src") =!= col("dst"))

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

  /** Edge table of an in-core graph. */
  def fromLocal(spark: SparkSession, g: LocalGraph): DataFrame = {
    import spark.implicits._
    spark.sparkContext
      .parallelize(0 until g.m, math.max(1, math.min(64, g.m / 10000 + 1)))
      .map(e => (g.edgeU(e).toLong, g.edgeV(e).toLong))
      .toDF("src", "dst")
  }

  /** An in-core graph plus the mapping from dense kernel ids back to the
    * original (possibly sparse) vertex ids of the edge table.
    */
  final case class Localized(graph: LocalGraph, origIds: Array[Long]) {
    def toOrig(denseId: Int): Long = origIds(denseId)
  }

  /** Collects any (src, dst) edge table into a dense-id [[LocalGraph]];
    * the result equals that of its [[canonicalize]]d table. Only self-loops
    * are dropped in Spark, a shuffle-free projection; orienting and deduping
    * happen on the driver (in [[LocalGraph.fromEdges]]). Vertices absent
    * from every non-loop edge get no id — they cannot participate in any
    * k-clique with k >= 2.
    */
  def toLocal(edges: DataFrame): Localized = {
    val rows = loopFree(edges).collect()
    LocalGraph.requireEdgeCount(rows.length)
    // Every endpoint, sorted and deduplicated into ids.
    val ids = new Array[Long](2 * rows.length)
    var i = 0
    while (i < rows.length) { ids(2 * i) = rows(i).getLong(0); ids(2 * i + 1) = rows(i).getLong(1); i += 1 }
    java.util.Arrays.sort(ids)
    var n = 0
    i = 0
    while (i < ids.length) { if (n == 0 || ids(i) != ids(n - 1)) { ids(n) = ids(i); n += 1 }; i += 1 }
    val origIds = java.util.Arrays.copyOf(ids, n)
    def dense(id: Long): Int = java.util.Arrays.binarySearch(origIds, id)
    val g = LocalGraph.fromEdges(n, rows.iterator.map(r => (dense(r.getLong(0)), dense(r.getLong(1)))))
    Localized(g, origIds)
  }

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
}
