package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Triangle enumeration and per-edge support in pure Catalyst.
  *
  * This is the DataFrame realization of the "triangle-based expansion over
  * edges" that underpins the edge-oriented framework: per-edge supports are
  * the input of truss peeling, and tests verify them and the triangles
  * row-for-row against the DuckDB oracle.
  */
object TriangleDF {

  /** All triangles (a, b, c) with a < b < c of a canonical edge table. */
  def triangles(edges: DataFrame): DataFrame = {
    val ab = edges.select(col("src").as("a"), col("dst").as("b"))
    val ac = edges.select(col("src").as("a2"), col("dst").as("c"))
    val bc = edges.select(col("src").as("b2"), col("dst").as("c2"))
    ab
      .join(ac, col("a") === col("a2") && col("b") < col("c"))
      .join(bc, col("b2") === col("b") && col("c2") === col("c"))
      .select(col("a"), col("b"), col("c"))
  }

  def triangleCount(edges: DataFrame): Long = triangles(edges).count()

  /** Per-edge triangle count: (src, dst, support), 0-support edges included. */
  def edgeSupport(edges: DataFrame): DataFrame = {
    val t = triangles(edges)
    val sides = t.select(col("a").as("src"), col("b").as("dst"))
      .unionAll(t.select(col("a").as("src"), col("c").as("dst")))
      .unionAll(t.select(col("b").as("src"), col("c").as("dst")))
    val counts = sides.groupBy("src", "dst").agg(count(lit(1)).as("support"))
    edges
      .join(counts, Seq("src", "dst"), "left_outer")
      .select(col("src"), col("dst"), coalesce(col("support"), lit(0L)).as("support"))
  }
}
