package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** DataFrame-side graph plumbing: conversions between (src, dst) edge
  * tables and the in-core [[LocalGraph]] used by kernels.
  *
  * Canonical form: columns `src`, `dst` (long) with `src < dst`,
  * deduplicated, no self-loops. [[toLocal]] accepts any (src, dst) table and
  * canonicalizes on the driver.
  */
object GraphDF {

  /** The (src, dst) columns as longs, self-loops dropped: a narrow
    * projection, no shuffle.
    */
  private[graph] def loopFree(edges: DataFrame): DataFrame =
    edges.select(col("src").cast("long").as("src"), col("dst").cast("long").as("dst"))
      .where(col("src") =!= col("dst"))

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
    * the result equals that of its canonical form. Only self-loops
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
}
