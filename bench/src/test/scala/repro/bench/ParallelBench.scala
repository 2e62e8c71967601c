package repro.bench

import repro.SparkSpec
import repro.core._
import repro.graph.SynthGraphs
import repro.util.Timer

/** Figure 10 as a table: parallel schemes on Spark. Compares
  *   - EBBkC+ET (edge subproblems under the truss ordering),
  *   - VBBkC+ET (EP): edge subproblems under the degeneracy-DAG ordering,
  *   - VBBkC+ET (NP): vertex subproblems,
  * at increasing partition counts. Shapes: EP balances better than NP, and
  * EBBkC+ET is at least as fast as VBBkC+ET (EP) at full parallelism.
  */
class ParallelBench extends SparkSpec {

  private val graphName = "PO"
  private val k = 10
  private val partitionSweep = Seq(1, 4, 16, 64)

  private lazy val g = SynthGraphs(graphName)

  private lazy val results: Map[(String, Int), (Long, Double)] = {
    val algos: Seq[(String, AlgoConfig)] = Seq(
      "EBBkC+ET" -> Algos.EBBkCET,
      "VBBkC+ET (EP)" -> Algos.VBBkCET.copy(edgeParallel = true),
      "VBBkC+ET (NP)" -> Algos.VBBkCET.copy(edgeParallel = false)
    )
    (for ((label, cfg) <- algos; p <- partitionSweep) yield {
      val t = Timer.median(reps = 3, warmup = 1)(
        KCliqueSpark.countLocal(spark, g, k, cfg, partitions = p))
      (label, p) -> (t.result, t.seconds)
    }).toMap
  }

  test("Figure 10 table: print per-scheme scaling") {
    println(s"== Figure 10: parallel schemes on $graphName, k=$k (seconds) ==")
    println(f"${"partitions"}%12s ${"EBBkC+ET"}%14s ${"VBBkC+ET(EP)"}%14s ${"VBBkC+ET(NP)"}%14s")
    for (p <- partitionSweep) {
      println(f"$p%12d ${results(("EBBkC+ET", p))._2}%14.3f ${results(("VBBkC+ET (EP)", p))._2}%14.3f ${results(("VBBkC+ET (NP)", p))._2}%14.3f")
    }
  }

  test("Figure 10: all schemes agree on the count at every partitioning") {
    val counts = results.values.map(_._1).toSet
    assert(counts.size == 1, s"count disagreement: $counts")
  }

  test("Figure 10 shape: EBBkC+ET is not dominated by VBBkC+ET (EP) at full parallelism") {
    val e = results(("EBBkC+ET", 64))._2
    val v = results(("VBBkC+ET (EP)", 64))._2
    info(f"EBBkC+ET ${e}%.3fs vs VBBkC+ET(EP) ${v}%.3fs")
    assert(e <= v * 1.5, f"EBBkC+ET ${e}%.3fs vs EP ${v}%.3fs")
  }
}

/** Figure 11 as a table: space costs. The paper's shape: all algorithms stay
  * within a small multiple of the graph size (O(n + m) space), EBBkC+ET
  * slightly above the others for its edge-ordering and ET structures.
  */
class SpaceBench extends org.scalatest.funsuite.AnyFunSuite {

  private val graphs = Seq("WK", "PO")
  private val algos: Seq[AlgoConfig] =
    Seq(Algos.EBBkCET, Algos.EBBkC, Algos.BitCol, Algos.DDegree)

  test("Figure 11 table: prep footprint as a multiple of the CSR graph size") {
    println("== Figure 11: prep space vs graph size (ratio) ==")
    for (name <- graphs) {
      val g = SynthGraphs(name)
      val base = g.approxBytes.toDouble
      val row = algos.map { cfg =>
        val prep = KClique.prepare(g, 8, cfg)
        f"${cfg.name}=${prep.approxBytes / base}%.2f"
      }
      println(s"$name (graph ${g.approxBytes / 1024} KiB): ${row.mkString("  ")}")
    }
  }

  for (name <- graphs; cfg <- algos)
    test(s"Figure 11 shape: ${cfg.name} on $name stays within 8x of the graph size") {
      val g = SynthGraphs(name)
      val prep = KClique.prepare(g, 8, cfg)
      assert(prep.approxBytes <= 8L * g.approxBytes + (1 << 20),
        s"${prep.approxBytes} vs graph ${g.approxBytes}")
    }
}

/** Figure 12 as a table: scalability on the largest stand-ins under the
  * parallel setting. Shape: EBBkC+ET consistently beats BitCol distributed.
  */
class ScalabilityBench extends SparkSpec {

  // Near-omega ks sit where the dominant clique still holds millions of
  // k-cliques (C(40,32), C(38,30)) — the regime where ET's combinatorial
  // counting beats enumeration, as in the paper's k=425 WP point.
  private val sweeps = Seq("UK" -> Seq(8, 32), "WP" -> Seq(8, 30), "CW" -> Seq(6, 8))

  private lazy val results: Seq[(String, Int, String, Long, Double)] = for {
    (name, ks) <- sweeps
    g = SynthGraphs(name)
    k <- ks
    (label, cfg) <- Seq[(String, AlgoConfig)](
      "EBBkC+ET" -> Algos.EBBkCET,
      "BitCol" -> Algos.BitCol.copy(edgeParallel = true))
  } yield {
    val t = Timer.median(reps = 3, warmup = 1)(KCliqueSpark.countLocal(spark, g, k, cfg))
    (name, k, label, t.result, t.seconds)
  }

  test("Figure 12 table: print distributed scalability runs") {
    println("== Figure 12: scalability on the largest stand-ins (local Spark, default partitions) ==")
    println(f"${"graph"}%6s ${"k"}%4s ${"algo"}%10s ${"#cliques"}%16s ${"seconds"}%10s")
    for ((name, k, label, cnt, sec) <- results)
      println(f"$name%6s $k%4d $label%10s $cnt%16d $sec%10.3f")
  }

  test("Figure 12: both algorithms agree on every count") {
    for ((name, ks) <- sweeps; k <- ks) {
      val cs = results.filter(r => r._1 == name && r._2 == k).map(_._4).distinct
      assert(cs.size == 1, s"$name k=$k: $cs")
    }
  }

  test("Figure 12 shape: EBBkC+ET wins near omega on the biggest graphs") {
    // WP stand-in omega = 38; paper reports ~100x over BitCol at k = 425 on WP.
    val et = results.find(r => r._1 == "WP" && r._2 == 30 && r._3 == "EBBkC+ET").get._5
    val bc = results.find(r => r._1 == "WP" && r._2 == 30 && r._3 == "BitCol").get._5
    info(f"WP k=30: EBBkC+ET ${et}%.3fs vs BitCol ${bc}%.3fs (${bc / et}%.1fx)")
    assert(et < bc, "EBBkC+ET lost near omega at scale")
  }
}
