package kcbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{AlgoConfig, Algos, CliqueSink, KClique}
import repro.graph.LocalGraph

class SinksTest extends AnyFunSuite {
  import SinksTest._

  private def drive(g: LocalGraph, k: Int, cfg: AlgoConfig, sink: CliqueSink): Unit = {
    val prep = KClique.prepare(g, k, cfg)
    val kernel = prep.newKernel()
    (0 until prep.numSubproblems).foreach(kernel.run(_, sink))
  }

  for ((gName, g, perK) <- fixtures; k <- 3 to 5; cfg <- Seq(Algos.EBBkCET, Algos.BitCol, Algos.VBBkCET)) {
    test(s"tally: counted + listed = total on $gName, k=$k, ${cfg.name}") {
      val tally = new TallySink
      drive(g, k, cfg, tally)
      assert(tally.counted + tally.cliqueCalls == perK(k))
      assert(tally.total == KClique.count(g, k, cfg))
    }
  }

  for ((gName, g, perK) <- fixtures; k <- 3 to 5) {
    test(s"listing sink sees every clique once on $gName, k=$k") {
      val sink = new ListHashSink(Array.tabulate(g.n)(identity))
      drive(g, k, Algos.EBBkCET, sink)
      assert(sink.listed == perK(k))
      assert(sink.hash == ListHash.of(bruteForce(g, k)))
    }
  }

  test("listing hash ignores clique order, vertex order and the seeded relabel") {
    val (_, g, _) = fixtures(1)
    val cliques = bruteForce(g, 4)
    val rnd = new scala.util.Random(3)
    val shuffled = rnd.shuffle(cliques).map(c => rnd.shuffle(c.toSeq).toArray)
    assert(ListHash.of(shuffled) == ListHash.of(cliques))
    for (seed <- Seq(1L, 2L, 9001L)) {
      val perm = Relabel.permutation(g.n, seed)
      val sink = new ListHashSink(Relabel.inverse(perm))
      drive(g.relabel(perm), 4, Algos.EBBkCET, sink)
      assert(sink.hash == ListHash.of(cliques), s"seed $seed")
    }
  }

  test("listing hash tells different clique sets apart") {
    val (_, g, _) = fixtures(1)
    val cliques = bruteForce(g, 4)
    assert(ListHash.of(cliques.tail) != ListHash.of(cliques))
    assert(ListHash.of(cliques.map(_.map(v => (v + 1) % g.n))) != ListHash.of(cliques))
  }

  test("relabel permutations are bijections and depend on the seed") {
    val p = Relabel.permutation(1000, 7)
    assert(p.sorted.sameElements(0 until 1000))
    assert(Relabel.inverse(p).indices.forall(i => p(Relabel.inverse(p)(i)) == i))
    assert(Relabel.permutation(1000, 7).sameElements(p))
    assert(!Relabel.permutation(1000, 8).sameElements(p))
  }
}

object SinksTest {
  def complete(n: Int, offset: Int = 0): Seq[(Int, Int)] =
    for (i <- 0 until n; j <- i + 1 until n) yield (i + offset, j + offset)

  val k6: LocalGraph = LocalGraph.fromEdges(6, complete(6))
  val twoK5: LocalGraph = LocalGraph.fromEdges(10, complete(5) ++ complete(5, 5))

  def binom(n: Int, k: Int): Long = (1 to k).foldLeft(1L)((acc, i) => acc * (n - k + i) / i)

  /** (name, graph, k -> number of k-cliques). */
  val fixtures: Vector[(String, LocalGraph, Int => Long)] = Vector(
    ("K6", k6, (k: Int) => binom(6, k)),
    ("two disjoint K5", twoK5, (k: Int) => 2 * binom(5, k))
  )

  /** Every k-subset of vertices that is a clique. */
  def bruteForce(g: LocalGraph, k: Int): Vector[Array[Int]] =
    (0 until g.n).combinations(k)
      .filter(c => c.combinations(2).forall { case Seq(a, b) => g.hasEdge(a, b) })
      .map(_.toArray).toVector
}
