package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.graph.{GraphDF, GraphGen, LocalGraph, TestGraphs}

/** Pure-Catalyst clique listing vs the DuckDB oracle and the kernels. */
class CliqueDFTest extends SparkSpec {
  import spark.implicits._

  private def fixture = TestGraphs.plantCliques(GraphGen.gnm(100, 400, seed = 21), Seq(0 until 7))

  test("k=3 listing matches DuckDB row for row (as sorted triples)") {
    val edges = GraphDF.fromLocal(spark, fixture)
    val got = CliqueDF.listCliques(edges, 3)
      .select(
        least($"v1", $"v2", $"v3").as("a"),
        greatest(least($"v1", $"v2"), least(greatest($"v1", $"v2"), $"v3")).as("b"),
        greatest($"v1", $"v2", $"v3").as("c")
      )
    Oracle.assertEquivalent(
      got,
      """SELECT CAST(ab.src AS BIGINT) AS a, CAST(ab.dst AS BIGINT) AS b, CAST(ac.dst AS BIGINT) AS c
        |FROM e ab
        |JOIN e ac ON ab.src = ac.src AND CAST(ab.dst AS BIGINT) < CAST(ac.dst AS BIGINT)
        |JOIN e bc ON bc.src = ab.dst AND bc.dst = ac.dst""".stripMargin,
      "e" -> edges
    )
  }

  test("k=4 count matches DuckDB") {
    val edges = GraphDF.fromLocal(spark, fixture)
    val cnt = Seq(CliqueDF.countCliques(edges, 4)).toDF("cnt")
    Oracle.assertEquivalent(
      cnt,
      """SELECT count(*) AS cnt
        |FROM e e12
        |JOIN e e13 ON e13.src = e12.src AND CAST(e13.dst AS BIGINT) > CAST(e12.dst AS BIGINT)
        |JOIN e e14 ON e14.src = e12.src AND CAST(e14.dst AS BIGINT) > CAST(e13.dst AS BIGINT)
        |JOIN e e23 ON e23.src = e12.dst AND e23.dst = e13.dst
        |JOIN e e24 ON e24.src = e12.dst AND e24.dst = e14.dst
        |JOIN e e34 ON e34.src = e13.dst AND e34.dst = e14.dst""".stripMargin,
      "e" -> edges
    )
  }

  for (k <- 3 to 6)
    test(s"CliqueDF count equals kernel count, k=$k") {
      val g = fixture
      val edges = GraphDF.fromLocal(spark, g)
      assert(CliqueDF.countCliques(edges, k) == KClique.count(g, k, Algos.EBBkCET))
    }

  test("CliqueDF rows are valid distinct cliques") {
    val g = GraphGen.gnp(30, 0.4, seed = 22)
    val edges = GraphDF.fromLocal(spark, g)
    val rows = CliqueDF.listCliques(edges, 4).as[(Long, Long, Long, Long)].collect()
      .map { case (a, b, c, d) => Seq(a, b, c, d).map(_.toInt).sorted }
    assert(rows.distinct.length == rows.length)
    for (cl <- rows; i <- cl.indices; j <- i + 1 until cl.length)
      assert(g.hasEdge(cl(i), cl(j)), s"$cl not a clique")
  }
}

/** The distributed drivers vs serial kernels, on DataFrame-native graphs. */
class KCliqueSparkTest extends SparkSpec {

  private lazy val localFixture =
    TestGraphs.plantCliques(GraphGen.powerLaw(400, 2000, 1.5, seed = 41), Seq(0 until 10))

  for (k <- 3 to 6; cfg <- Seq[AlgoConfig](
      Algos.EBBkCET, Algos.EBBkC, Algos.EBBkCT_ET,
      Algos.BitCol, Algos.DDegCol,
      Algos.VBBkCET.copy(edgeParallel = true),
      Algos.VBBkCET.copy(edgeParallel = false)))
    test(s"distributed count equals serial: ${cfg.name}, k=$k") {
      val g = localFixture
      val serial = KClique.count(g, k, cfg)
      val dist = KCliqueSpark.countLocal(spark, g, k, cfg, partitions = 13)
      assert(dist == serial)
    }

  test("distributed count on a Spark-generated zipf graph matches brute force") {
    val edges = TestGraphs.zipfEdges(spark, 200, 900, 1.4, seed = 42)
    val g = GraphDF.toLocal(edges).graph
    for (k <- 3 to 5)
      assert(KCliqueSpark.count(spark, edges, k, Algos.EBBkCET) == BruteForce.count(g, k))
  }

  test("listing DataFrame has sorted distinct rows mapping to valid cliques") {
    val g = GraphGen.gnp(40, 0.35, seed = 43)
    val edges = GraphDF.fromLocal(spark, g)
    val df = KCliqueSpark.list(spark, edges, 4, Algos.EBBkCET, partitions = 7)
    val rows = df.collect().map(r => (0 until 4).map(i => r.getLong(i).toInt))
    assert(rows.forall(c => c == c.sorted))
    assert(rows.distinct.length == rows.length)
    for (cl <- rows; i <- cl.indices; j <- i + 1 until cl.length) assert(g.hasEdge(cl(i), cl(j)))
    assert(rows.length.toLong == BruteForce.count(g, 4))
  }

  test("listing preserves original (sparse) vertex ids") {
    import spark.implicits._
    val edges = Seq((100L, 200L), (100L, 300L), (200L, 300L)).toDF("src", "dst")
    val df = KCliqueSpark.list(spark, edges, 3, Algos.EBBkCET)
    assert(df.collect().map(r => (r.getLong(0), r.getLong(1), r.getLong(2))).toSeq ==
      Seq((100L, 200L, 300L)))
  }

  test("empty edge table yields zero") {
    import spark.implicits._
    val edges = Seq.empty[(Long, Long)].toDF("src", "dst")
    assert(KCliqueSpark.count(spark, edges, 4, Algos.EBBkCET) == 0L)
  }

  test("NP and EP schemes agree for VBBkC") {
    val g = localFixture
    for (k <- Seq(4, 6)) {
      val np = KCliqueSpark.countLocal(spark, g, k, Algos.BitCol.copy(edgeParallel = false))
      val ep = KCliqueSpark.countLocal(spark, g, k, Algos.BitCol.copy(edgeParallel = true))
      assert(np == ep)
    }
  }

  // The strided fan-out at every width, down to one subproblem per slot.
  private val fanOutAlgos = Seq[AlgoConfig](Algos.EBBkCET, Algos.EBBkCT_ET,
    Algos.VBBkCET.copy(edgeParallel = false), Algos.VBBkCET.copy(edgeParallel = true))
  private def fanOutGraph(name: String): LocalGraph =
    if (name == "localFixture") localFixture else KernelFixtures.graphs.toMap.apply(name)

  for (gName <- Seq("localFixture", "hub"); cfg <- fanOutAlgos)
    test(s"strided fan-out count equals serial at 1, 2, 7, 64 and > n partitions: ${cfg.name} on $gName") {
      val g = fanOutGraph(gName)
      val k = 5
      val serial = KClique.count(g, k, cfg)
      val n = KClique.prepare(g, k, cfg).numSubproblems
      for (p <- Seq(1, 2, 7, 64, n + 3))
        assert(KCliqueSpark.countLocal(spark, g, k, cfg, partitions = p) == serial, s"partitions=$p")
    }

  for (gName <- Seq("localFixture", "hub"); cfg <- fanOutAlgos)
    test(s"strided fan-out listing equals the serial listing at 1 and 64 partitions: ${cfg.name} on $gName") {
      import spark.implicits._
      // Sparse ids, negative and near Long.MaxValue, mapped back through origIds.
      def orig(v: Int): Long = Long.MaxValue - 7919L * (v + 1) * (v + 1) - (if (v % 2 == 0) Long.MaxValue else 0L)
      val g = fanOutGraph(gName)
      val edges = g.edges.map { case (u, v) => (orig(u), orig(v)) }.toSeq.toDF("src", "dst")
      val loc = GraphDF.toLocal(edges)
      val k = 4
      val serial = KClique.list(loc.graph, k, cfg).map(_.map(loc.toOrig).sorted.toSeq).toSet
      assert(serial.nonEmpty)
      for (p <- Seq(1, 64)) {
        val rows = KCliqueSpark.list(spark, edges, k, cfg, partitions = p).collect()
          .map(r => (0 until k).map(r.getLong)).toSeq
        assert(rows.length == serial.size && rows.toSet == serial, s"partitions=$p")
      }
    }

  test("distributed count equals DuckDB 4-clique count on a small graph") {
    val g = GraphGen.gnp(35, 0.35, seed = 44)
    val edges = GraphDF.fromLocal(spark, g)
    import spark.implicits._
    val cnt = Seq(KCliqueSpark.count(spark, edges, 4, Algos.EBBkCET)).toDF("cnt")
    Oracle.assertEquivalent(
      cnt,
      """SELECT count(*) AS cnt
        |FROM e e12
        |JOIN e e13 ON e13.src = e12.src AND CAST(e13.dst AS BIGINT) > CAST(e12.dst AS BIGINT)
        |JOIN e e14 ON e14.src = e12.src AND CAST(e14.dst AS BIGINT) > CAST(e13.dst AS BIGINT)
        |JOIN e e23 ON e23.src = e12.dst AND e23.dst = e13.dst
        |JOIN e e24 ON e24.src = e12.dst AND e24.dst = e14.dst
        |JOIN e e34 ON e34.src = e13.dst AND e34.dst = e14.dst""".stripMargin,
      "e" -> edges
    )
  }
}
