package repro.bench

import repro.core._
import repro.graph.{LocalGraph, SynthGraphs}
import repro.util.Timer

/** Shared harness for the table benches: runs algorithm/k sweeps on the
  * synthetic stand-ins, asserts every algorithm agrees on the count (a bench
  * that silently diverges is worthless), and prints paper-style tables that
  * EXPERIMENTS.md records next to the paper's numbers.
  */
object BenchTables {

  final case class Cell(algo: String, k: Int, count: Long, seconds: Double)

  /** One serial count (preprocessing + ordering + listing, as the paper
    * measures), timed as the median of 3 runs after 1 warm-up so no cell
    * carries the JIT's warm-up. Returns the count and wall seconds.
    */
  def run(g: LocalGraph, k: Int, cfg: AlgoConfig): Cell = {
    val t = Timer.median(reps = 3, warmup = 1)(KClique.count(g, k, cfg))
    Cell(cfg.name, k, t.result, t.seconds)
  }

  /** Sweeps algorithms x k on one graph, asserting count agreement per k. */
  def sweep(name: String, g: LocalGraph, ks: Seq[Int], algos: Seq[AlgoConfig]): Seq[Cell] = {
    val cells = for (k <- ks; cfg <- algos) yield run(g, k, cfg)
    for (k <- ks) {
      val counts = cells.filter(_.k == k).map(_.count).distinct
      require(counts.size == 1, s"count disagreement on $name k=$k: $counts")
    }
    cells
  }

  /** Renders a time table: rows = k, columns = algorithms. */
  def render(title: String, cells: Seq[Cell], algos: Seq[AlgoConfig]): String = {
    val sb = new StringBuilder
    sb ++= s"-- $title --\n"
    sb ++= f"${"k"}%4s ${"#cliques"}%14s"
    algos.foreach(a => sb ++= f" ${a.name}%14s")
    sb ++= "\n"
    for (k <- cells.map(_.k).distinct.sorted) {
      val row = cells.filter(_.k == k)
      sb ++= f"$k%4d ${row.head.count}%14d"
      for (a <- algos) {
        val c = row.find(_.algo == a.name).get
        sb ++= f" ${c.seconds}%14.3f"
      }
      sb ++= "\n"
    }
    sb.result()
  }

  def sweepAndPrint(graphName: String, ks: Seq[Int], algos: Seq[AlgoConfig]): Seq[Cell] = {
    val g = SynthGraphs(graphName)
    val cells = sweep(graphName, g, ks, algos)
    println(render(s"$graphName (n=${g.n}, m=${g.m})", cells, algos))
    cells
  }

  /** Geometric-mean speedup of `a` over `b` across matching (k) cells. */
  def geoSpeedup(cells: Seq[Cell], a: String, b: String): Double = {
    val ratios = for {
      k <- cells.map(_.k).distinct
      ta <- cells.find(c => c.k == k && c.algo == a).map(_.seconds)
      tb <- cells.find(c => c.k == k && c.algo == b).map(_.seconds)
      if ta > 0
    } yield tb / ta
    math.exp(ratios.map(math.log).sum / ratios.size)
  }

  /** Total-sweep speedup of `a` over `b` (sum of times over all k). At
    * stand-in scale the prep-dominated trivial ks are measurement noise, so
    * the sum — weighted toward the ks where the algorithms actually do work,
    * like the paper's heavy real-graph points — is the shape-faithful
    * comparison.
    */
  def sumSpeedup(cells: Seq[Cell], a: String, b: String): Double = {
    val ta = cells.filter(_.algo == a).map(_.seconds).sum
    val tb = cells.filter(_.algo == b).map(_.seconds).sum
    tb / math.max(ta, 1e-9)
  }
}
