package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.graph.{GraphDF, GraphGen, TestGraphs}

/** DataFrame graph plumbing: canonicalization, generators, local round-trips. */
class GraphDFTest extends SparkSpec {
  import spark.implicits._

  test("canonicalize dedupes reversed duplicates and drops loops") {
    val raw = Seq((1L, 2L), (2L, 1L), (3L, 3L), (2L, 3L), (2L, 3L)).toDF("src", "dst")
    val e = TestGraphs.canonicalize(raw).as[(Long, Long)].collect().sorted.toSeq
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

  test("toLocal of a raw table equals toLocal of its canonical form") {
    val big = Long.MaxValue
    val raw = Seq(
      (1L, 2L), (2L, 1L), (1L, 2L),       // reversed and exact duplicates
      (7L, 7L), (2L, 2L),                 // self-loops; 7 appears in no other edge
      (big, -5L), (-5L, big), (big - 1, big), (big, big),
      (-9L, 2L), (2L, -9L), (-9L, -5L), (Long.MinValue, 1L)
    ).toDF("src", "dst")
    val got = GraphDF.toLocal(raw)
    val want = GraphDF.toLocal(TestGraphs.canonicalize(raw))
    assert(got.origIds.toSeq == want.origIds.toSeq)
    assert(got.origIds.toSeq == Seq(Long.MinValue, -9L, -5L, 1L, 2L, big - 1, big))
    assert(!got.origIds.contains(7L))
    assert(got.graph.n == want.graph.n && got.graph.m == want.graph.m && got.graph.m == 6)
    assert(got.graph.offsets.toSeq == want.graph.offsets.toSeq)
    assert(got.graph.adj.toSeq == want.graph.adj.toSeq)
    assert(got.graph.edgeU.toSeq == want.graph.edgeU.toSeq)
    assert(got.graph.edgeV.toSeq == want.graph.edgeV.toSeq)
  }

  test("stats match the local graph") {
    val g = GraphGen.powerLaw(150, 600, 1.5, seed = 2)
    val (n, m, maxDeg) = TestGraphs.stats(GraphDF.fromLocal(spark, g))
    assert(m == g.m)
    assert(maxDeg == g.maxDegree)
    assert(n == (0 until g.n).count(g.degree(_) > 0))
  }

  test("zipf and uniform edge generators are canonical and deterministic") {
    for (df <- Seq(
        TestGraphs.zipfEdges(spark, 500, 2000, 1.5, seed = 3),
        TestGraphs.uniformEdges(spark, 500, 2000, seed = 4))) {
      val rows = df.as[(Long, Long)].collect()
      assert(rows.forall { case (s, d) => s < d })
      assert(rows.distinct.length == rows.length)
    }
    val a = TestGraphs.zipfEdges(spark, 300, 1000, 1.4, seed = 9).as[(Long, Long)].collect().sorted.toSeq
    val b = TestGraphs.zipfEdges(spark, 300, 1000, 1.4, seed = 9).as[(Long, Long)].collect().sorted.toSeq
    assert(a == b)
  }

  test("oracle agrees on degree distribution of a generated edge table") {
    val edges = TestGraphs.uniformEdges(spark, 200, 800, seed = 5)
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
