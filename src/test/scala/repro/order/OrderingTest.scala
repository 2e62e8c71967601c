package repro.order

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{GraphGen, LocalGraph, SynthGraphs, TestGraphs}

class CoreDecompositionTest extends AnyFunSuite {

  test("complete graph K_n has degeneracy n - 1") {
    for (n <- Seq(2, 5, 9)) assert(CoreDecomposition.run(TestGraphs.complete(n)).degeneracy == n - 1)
  }

  test("complete bipartite K_{p,p} has degeneracy p") {
    for (p <- Seq(2, 4, 7)) assert(CoreDecomposition.run(TestGraphs.completeBipartite(p, p)).degeneracy == p)
  }

  test("trees have degeneracy 1, cycles 2") {
    assert(CoreDecomposition.run(TestGraphs.randomTree(50, 1)).degeneracy == 1)
    assert(CoreDecomposition.run(TestGraphs.cycle(50)).degeneracy == 2)
    assert(CoreDecomposition.run(TestGraphs.path(50)).degeneracy == 1)
    assert(CoreDecomposition.run(TestGraphs.star(50)).degeneracy == 1)
  }

  test("planted clique dominates a sparse background") {
    val g = TestGraphs.plantCliques(TestGraphs.randomTree(300, 2), Seq(100 until 112))
    assert(CoreDecomposition.run(g).degeneracy == 11)
  }

  test("order and rank are inverse permutations") {
    val g = GraphGen.gnm(200, 800, 3)
    val r = CoreDecomposition.run(g)
    assert(r.order.indices.forall(i => r.rank(r.order(i)) == i))
    assert(r.order.sorted.toSeq == (0 until g.n))
  }

  test("degeneracy-ordering invariant: every vertex has <= delta later neighbors") {
    val g = GraphGen.powerLaw(400, 2500, 1.4, 4)
    val r = CoreDecomposition.run(g)
    for (v <- 0 until g.n) {
      val later = TestGraphs.neighborsOf(g, v).count(w => r.rank(w) > r.rank(v))
      assert(later <= r.degeneracy, s"vertex $v has $later later neighbors > ${r.degeneracy}")
    }
  }

  test("coreness is monotone along the peel and maxes at degeneracy") {
    val g = GraphGen.gnm(300, 1500, 5)
    val r = CoreDecomposition.run(g)
    assert(r.coreness.max == r.degeneracy)
    // Coreness of order(i) is non-decreasing in i by construction.
    val seq = r.order.map(r.coreness)
    assert(seq.zip(seq.tail).forall { case (a, b) => a <= b })
  }

  test("coreness is a fixpoint: each vertex has >= coreness neighbors of >= coreness") {
    val g = GraphGen.powerLaw(300, 1800, 1.5, 6)
    val r = CoreDecomposition.run(g)
    for (v <- 0 until g.n) {
      val c = r.coreness(v)
      val strong = TestGraphs.neighborsOf(g, v).count(w => r.coreness(w) >= c)
      assert(strong >= c, s"vertex $v coreness $c but only $strong strong neighbors")
    }
  }
}

class TrussDecompositionTest extends AnyFunSuite {

  test("complete graph K_n has tau = n - 2 (k_max = n)") {
    for (n <- Seq(3, 5, 8)) {
      val t = TrussDecomposition.run(TestGraphs.complete(n))
      assert(t.tau == n - 2)
      assert(t.tau + 2 == n)
      assert(t.trussNumber.forall(_ == n))
    }
  }

  test("triangle-free graphs have tau = 0") {
    assert(TrussDecomposition.run(TestGraphs.completeBipartite(6, 6)).tau == 0)
    assert(TrussDecomposition.run(TestGraphs.cycle(10)).tau == 0)
    assert(TrussDecomposition.run(TestGraphs.randomTree(40, 1)).tau == 0)
  }

  test("single triangle has tau = 1") {
    assert(TrussDecomposition.run(TestGraphs.cycle(3)).tau == 1)
  }

  test("supports match DataFrame-free local counts on small graphs") {
    val g = GraphGen.gnp(40, 0.25, 7)
    val sup = TrussDecomposition.supports(g)
    for (e <- 0 until g.m) {
      val u = g.edgeU(e); val v = g.edgeV(e)
      val expected = (0 until g.n).count(w => w != u && w != v && g.hasEdge(u, w) && g.hasEdge(v, w))
      assert(sup(e) == expected)
    }
  }

  test("triangleCount matches brute force") {
    val g = GraphGen.gnp(35, 0.3, 8)
    assert(repro.core.Triangles.count(g) == repro.core.BruteForce.count(g, 3))
  }

  test("Lemma 4.1: tau < delta on assorted graphs") {
    val graphs = Seq(
      TestGraphs.complete(8),
      GraphGen.gnp(60, 0.2, 1),
      GraphGen.powerLaw(300, 1500, 1.5, 2),
      TestGraphs.plantCliques(GraphGen.gnm(200, 600, 3), Seq(0 until 15)),
      TestGraphs.completeBipartite(5, 5)
    )
    for (g <- graphs if g.m > 0) {
      val tau = TrussDecomposition.run(g).tau
      val delta = CoreDecomposition.run(g).degeneracy
      assert(tau < delta, s"tau=$tau !< delta=$delta")
    }
  }

  test("edgeOrder and edgeRank are inverse permutations") {
    val g = GraphGen.gnp(50, 0.2, 9)
    val t = TrussDecomposition.run(g)
    assert(t.edgeOrder.indices.forall(i => t.edgeRank(t.edgeOrder(i)) == i))
    assert(t.edgeOrder.sorted.toSeq == (0 until g.m))
  }

  test("truss-ordering invariant: suffix support at removal is bounded by tau") {
    // For every edge, its endpoints' common neighbors through strictly
    // later-ranked edges number at most tau (this is |V(g_i)| of Eq. 3/5).
    val g = TestGraphs.plantCliques(GraphGen.gnm(150, 800, 10), Seq(0 until 12, 50 until 58))
    val t = TrussDecomposition.run(g)
    for (e <- 0 until g.m) {
      val u = g.edgeU(e); val v = g.edgeV(e)
      val r = t.edgeRank(e)
      val cnt = (0 until g.n).count { w =>
        w != u && w != v && {
          val ea = TestGraphs.edgeIdOf(g, u, w); val eb = TestGraphs.edgeIdOf(g, v, w)
          ea >= 0 && eb >= 0 && t.edgeRank(ea) > r && t.edgeRank(eb) > r
        }
      }
      assert(cnt <= t.tau, s"edge $e has suffix support $cnt > tau=${t.tau}")
    }
  }

  test("trussNumber is non-decreasing along the peel order") {
    val g = GraphGen.powerLaw(200, 1200, 1.5, 11)
    val t = TrussDecomposition.run(g)
    val seq = t.edgeOrder.map(t.trussNumber)
    assert(seq.zip(seq.tail).forall { case (a, b) => a <= b })
  }

  test("planted-clique truss number: clique edges live in the k-truss") {
    val g = TestGraphs.plantCliques(TestGraphs.randomTree(100, 4), Seq(10 until 20))
    val t = TrussDecomposition.run(g)
    assert(t.tau == 8) // K_10 => every clique edge has 8 common neighbors
    for (u <- 10 until 20; v <- u + 1 until 20)
      assert(t.trussNumber(TestGraphs.edgeIdOf(g, u, v)) == 10)
  }

  test("tau >= omega - 2 (an omega-clique is an omega-truss)") {
    val g = TestGraphs.plantCliques(GraphGen.gnm(300, 900, 12), Seq(0 until 14))
    val tau = TrussDecomposition.run(g).tau
    val omega = MaxClique.omega(g)
    assert(tau >= omega - 2)
  }
}

/** The truss and core peels of the WK, PO and ST stand-ins, pinned as
  * `java.util.Arrays.hashCode` of each output array: a change to the shared
  * bucket queue that reorders any tie shows here.
  */
class PeelPinTest extends AnyFunSuite {
  private def h(a: Array[Int]): Int = java.util.Arrays.hashCode(a)

  // (edgeOrder, edgeRank, trussNumber, tau, order, rank, coreness, degeneracy)
  private val pinned = Seq(
    "WK" -> Seq(-1395678573, 1149948243, -2144011469, 54, 590313437, 659335761, 800049806, 98),
    "PO" -> Seq(-1257700503, 1326087049, 842137973, 54, -1433039047, -972894879, 834269093, 97),
    "ST" -> Seq(-1832781204, 1668051912, -404944478, 27, 1721365697, -1571140243, 848381687, 55))

  for ((name, want) <- pinned)
    test(s"truss and core peels of the $name stand-in match their pinned hashes") {
      val g = SynthGraphs(name)
      val t = TrussDecomposition.run(g)
      val c = CoreDecomposition.run(g)
      assert(Seq(h(t.edgeOrder), h(t.edgeRank), h(t.trussNumber), t.tau,
        h(c.order), h(c.rank), h(c.coreness), c.degeneracy) == want)
    }
}

class BucketPeelTest extends AnyFunSuite {

  /** `order` sorted by key, ties by item ascending, and `pos` its inverse. */
  private def assertSorted(key: Array[Int]): Unit = {
    val q = new BucketPeel(key.clone())
    assert(q.order.toSeq == key.indices.sortBy(x => (key(x), x)))
    assert(key.indices.forall(x => q.order(q.pos(x)) == x))
  }

  test("order is sorted by key with ties by item, pos its inverse") {
    val rnd = new scala.util.Random(17)
    for (n <- Seq(1, 2, 10, 100, 1000); maxKey <- Seq(0, 3, 50)) assertSorted(Array.fill(n)(rnd.nextInt(maxKey + 1)))
    assertSorted(Array.fill(40)(7))
    assertSorted(Array.emptyIntArray)
  }

  test("decrement moves an item one bucket down and keeps order sorted") {
    val rnd = new scala.util.Random(23)
    val key = Array.fill(200)(rnd.nextInt(20))
    val q = new BucketPeel(key)
    // Peel like the core decomposition: visit position i, then lower a few
    // random keys above its key among the items past i.
    for (i <- key.indices) {
      val level = key(q.order(i))
      val visited = q.order.take(i + 1).toSeq
      for (_ <- 0 until 5 if i + 1 < key.length) {
        val x = q.order(i + 1 + rnd.nextInt(key.length - i - 1))
        if (key(x) > level) {
          val before = key(x)
          q.decrement(x)
          assert(key(x) == before - 1 && q.pos(x) > i)
        }
      }
      assert(q.order.take(i + 1).toSeq == visited)
      assert((0 until key.length - 1).forall(p => key(q.order(p)) <= key(q.order(p + 1))), s"after $i")
      assert(key.indices.forall(x => q.order(q.pos(x)) == x))
    }
  }
}

class ColoringTest extends AnyFunSuite {

  private def assertProper(g: LocalGraph, colors: Array[Int]): Unit =
    for ((u, v) <- g.edges) assert(colors(u) != colors(v), s"edge ($u,$v) monochromatic")

  test("greedy coloring is proper on random graphs") {
    for (seed <- 1 to 5) {
      val g = GraphGen.gnp(60, 0.3, seed)
      assertProper(g, Coloring.inverseDegeneracy(g))
    }
  }

  test("inverse-degeneracy coloring uses at most delta + 1 colors") {
    val g = GraphGen.powerLaw(300, 1500, 1.5, 3)
    val colors = Coloring.inverseDegeneracy(g)
    assert(colors.max <= CoreDecomposition.run(g).degeneracy + 1)
  }

  test("complete graph needs exactly n colors; bipartite exactly 2") {
    assert(Coloring.inverseDegeneracy(TestGraphs.complete(6)).max == 6)
    assert(Coloring.inverseDegeneracy(TestGraphs.completeBipartite(4, 4)).max == 2)
  }

  test("inverseDegeneracy is proper first fit in reverse degeneracy order") {
    val g = GraphGen.gnp(40, 0.25, 6)
    val colors = Coloring.inverseDegeneracy(g)
    assertProper(g, colors)
    // First fit read off the global graph: each vertex takes the smallest
    // color that none of its neighbors later in the degeneracy order has.
    val rank = CoreDecomposition.run(g).rank
    for (v <- 0 until g.n) {
      val taken = (0 until g.n).filter(u => rank(u) > rank(v) && g.hasEdge(u, v)).map(colors).toSet
      assert(colors(v) == Iterator.from(1).find(!taken(_)).get, s"vertex $v")
    }
  }
}

class MaxCliqueTest extends AnyFunSuite {

  test("known shapes") {
    assert(MaxClique.omega(TestGraphs.complete(7)) == 7)
    assert(MaxClique.omega(TestGraphs.completeBipartite(4, 5)) == 2)
    assert(MaxClique.omega(TestGraphs.cycle(9)) == 2)
    assert(MaxClique.omega(TestGraphs.cycle(3)) == 3)
    assert(MaxClique.omega(TestGraphs.randomTree(30, 1)) == 2)
    assert(MaxClique.omega(LocalGraph.empty(4)) == 1)
  }

  test("planted cliques are found") {
    val g = TestGraphs.plantCliques(GraphGen.gnm(400, 1200, 2), Seq(0 until 17))
    assert(MaxClique.omega(g) == 17)
  }

  test("matches brute force on random graphs") {
    for (seed <- 1 to 6) {
      val g = GraphGen.gnp(28, 0.45, seed)
      val brute = (1 to g.n).reverse.find(k => BruteHelper.hasClique(g, k)).get
      assert(MaxClique.omega(g) == brute, s"seed=$seed")
    }
  }

  test("tPlex omega: removing a matching from K_n drops omega to ceil(n/2) at least") {
    val g = TestGraphs.tPlex(12, 2, 3) // K_12 minus one perfect matching
    val o = MaxClique.omega(g)
    assert(o >= 6 && o < 12)
  }
}

private object BruteHelper {
  def hasClique(g: LocalGraph, k: Int): Boolean =
    if (k <= 1) g.n >= k else repro.core.BruteForce.list(g, k).nonEmpty
}
