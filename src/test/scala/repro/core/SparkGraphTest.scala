package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.graph.{GraphDF, GraphGen}

/** DataFrame graph plumbing: canonicalization, generators, local round-trips. */
class GraphDFTest extends SparkSpec {
  import spark.implicits._

  test("canonicalize dedupes reversed duplicates and drops loops") {
    val raw = Seq((1L, 2L), (2L, 1L), (3L, 3L), (2L, 3L), (2L, 3L)).toDF("src", "dst")
    val e = GraphDF.canonicalize(raw).as[(Long, Long)].collect().sorted.toSeq
    assert(e == Seq((1L, 2L), (2L, 3L)))
  }

  test("fromLocal/toLocal round-trips a random graph") {
    val g = GraphGen.gnm(80, 300, seed = 1)
    val df = GraphDF.fromLocal(spark, g)
    val back = GraphDF.toLocal(df)
    assert(back.graph.m == g.m)
    assert(back.graph.edges.map { case (u, v) => (back.toOrig(u), back.toOrig(v)) }.toSet ==
      g.edges.map { case (u, v) => (u.toLong, v.toLong) }.toSet)
  }

  test("toLocal densifies sparse vertex ids") {
    val df = Seq((10L, 1000L), (1000L, 500000L)).toDF("src", "dst")
    val loc = GraphDF.toLocal(df)
    assert(loc.graph.n == 3 && loc.graph.m == 2)
    assert(loc.origIds.toSeq == Seq(10L, 1000L, 500000L))
  }

  test("stats match the local graph") {
    val g = GraphGen.powerLaw(150, 600, 1.5, seed = 2)
    val (n, m, maxDeg) = GraphDF.stats(GraphDF.fromLocal(spark, g))
    assert(m == g.m)
    assert(maxDeg == g.maxDegree)
    assert(n == (0 until g.n).count(g.degree(_) > 0))
  }

  test("zipf and uniform edge generators are canonical and deterministic") {
    for (df <- Seq(
        GraphDF.zipfEdges(spark, 500, 2000, 1.5, seed = 3),
        GraphDF.uniformEdges(spark, 500, 2000, seed = 4))) {
      val rows = df.as[(Long, Long)].collect()
      assert(rows.forall { case (s, d) => s < d })
      assert(rows.distinct.length == rows.length)
    }
    val a = GraphDF.zipfEdges(spark, 300, 1000, 1.4, seed = 9).as[(Long, Long)].collect().sorted.toSeq
    val b = GraphDF.zipfEdges(spark, 300, 1000, 1.4, seed = 9).as[(Long, Long)].collect().sorted.toSeq
    assert(a == b)
  }

  test("oracle agrees on degree distribution of a generated edge table") {
    val edges = GraphDF.uniformEdges(spark, 200, 800, seed = 5)
    val degs = edges.select($"src".as("v")).unionAll(edges.select($"dst".as("v")))
      .groupBy("v").agg(count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(
      degs,
      """SELECT v, count(*) AS cnt FROM (
        |  SELECT CAST(src AS BIGINT) AS v FROM edges
        |  UNION ALL
        |  SELECT CAST(dst AS BIGINT) AS v FROM edges
        |) GROUP BY v""".stripMargin,
      "edges" -> edges
    )
  }
}

/** Catalyst triangle enumeration vs the DuckDB oracle and local kernels. */
class TriangleDFTest extends SparkSpec {
  import spark.implicits._

  private def fixture = GraphGen.plantCliques(GraphGen.gnm(120, 500, seed = 7), Seq(0 until 8))

  test("triangles match DuckDB row for row") {
    val edges = GraphDF.fromLocal(spark, fixture)
    Oracle.assertEquivalent(
      TriangleDF.triangles(edges),
      """SELECT CAST(ab.src AS BIGINT) AS a, CAST(ab.dst AS BIGINT) AS b, CAST(ac.dst AS BIGINT) AS c
        |FROM e ab
        |JOIN e ac ON ab.src = ac.src AND CAST(ab.dst AS BIGINT) < CAST(ac.dst AS BIGINT)
        |JOIN e bc ON bc.src = ab.dst AND bc.dst = ac.dst""".stripMargin,
      "e" -> edges
    )
  }

  test("triangle count matches the local truss-support count") {
    val g = fixture
    assert(TriangleDF.triangleCount(GraphDF.fromLocal(spark, g)) ==
      repro.order.TrussDecomposition.triangleCount(g))
  }

  test("edgeSupport matches local supports including zero-support edges") {
    val g = GraphGen.gnm(60, 200, seed = 8)
    val sup = repro.order.TrussDecomposition.supports(g)
    val got = TriangleDF.edgeSupport(GraphDF.fromLocal(spark, g))
      .as[(Long, Long, Long)].collect()
      .map { case (s, d, c) => (s.toInt, d.toInt) -> c }.toMap
    assert(got.size == g.m)
    for (e <- 0 until g.m)
      assert(got((g.edgeU(e), g.edgeV(e))) == sup(e).toLong, s"edge $e")
  }

  test("edgeSupport against the DuckDB oracle (common-neighbor count)") {
    val edges = GraphDF.fromLocal(spark, GraphGen.gnp(40, 0.25, seed = 9))
    Oracle.assertEquivalent(
      TriangleDF.edgeSupport(edges),
      """WITH sym AS (
        |  SELECT CAST(src AS BIGINT) AS u, CAST(dst AS BIGINT) AS v FROM e
        |  UNION ALL
        |  SELECT CAST(dst AS BIGINT) AS u, CAST(src AS BIGINT) AS v FROM e
        |)
        |SELECT CAST(e.src AS BIGINT) AS src, CAST(e.dst AS BIGINT) AS dst,
        |       (SELECT count(*) FROM sym a JOIN sym b ON a.v = b.v
        |         WHERE a.u = CAST(e.src AS BIGINT) AND b.u = CAST(e.dst AS BIGINT)) AS support
        |FROM e""".stripMargin,
      "e" -> edges
    )
  }
}
