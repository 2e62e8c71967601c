package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.util.Timer

/** Times the multi-word bitset paths, which no EBBkC branch graph of a
  * stand-in reaches: every WK and PO branch graph has at most tau = 54
  * vertices, one word. On the mixed-width fixture (a complete tripartite
  * core, tau >= 65) the first EBBkC branch graphs and the VBBkC subproblems
  * span two words and the rest one. EBBkC-H/C and BitCol run them on the
  * same word-row recursion, `DagBranch` (two vertex steps per edge branch,
  * or one); EBBkC-T on its own per-depth rows; DDegree and DDegCol build
  * those subproblems as word rows too and read them back as int rows. Each
  * cell repeats its count for at least 2 s, as kcbench's warm-up does, then
  * takes the median of 15 serial counts; the counts must agree per k.
  */
class WidthBench extends AnyFunSuite {

  private val algos: Seq[AlgoConfig] =
    Seq(Algos.EBBkCET, Algos.EBBkCT_ET, Algos.EBBkCC_ET, Algos.BitCol, Algos.DDegree, Algos.DDegCol)

  private val WarmUpNs = 2000000000L

  test("multi-word paths: mixed-width fixture, k = 5..8") {
    val g = KernelFixtures.mixedWidth
    val cells = for (k <- 5 to 8; cfg <- algos) yield {
      val t0 = System.nanoTime()
      while (System.nanoTime() - t0 < WarmUpNs) KClique.count(g, k, cfg)
      val t = Timer.median(reps = 15, warmup = 0)(KClique.count(g, k, cfg))
      BenchTables.Cell(cfg.name, k, t.result, t.seconds)
    }
    for (k <- 5 to 8) assert(cells.filter(_.k == k).map(_.count).distinct.size == 1, s"count disagreement at k=$k")
    println(BenchTables.render(s"mixed-width (n=${g.n}, m=${g.m})", cells, algos))
  }
}
