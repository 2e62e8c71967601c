package repro.graph

import org.scalatest.funsuite.AnyFunSuite

class LocalGraphTest extends AnyFunSuite {

  test("fromEdges dedupes, drops self-loops, and symmetrizes") {
    val g = LocalGraph.fromEdges(4, Seq((0, 1), (1, 0), (0, 1), (2, 2), (3, 1)))
    assert(g.m == 2)
    assert(g.hasEdge(0, 1) && g.hasEdge(1, 0))
    assert(g.hasEdge(1, 3) && g.hasEdge(3, 1))
    assert(!g.hasEdge(2, 2))
    assert(!g.hasEdge(0, 2))
  }

  test("edge counts past MaxEdges (2^30 and 2^30 + 1 among them) fail loudly") {
    LocalGraph.requireEdgeCount(LocalGraph.MaxEdges)
    assert(2L * LocalGraph.MaxEdges <= Int.MaxValue - 8)
    for (m <- Seq(LocalGraph.MaxEdges + 1L, 1L << 30, (1L << 30) + 1)) {
      val e = intercept[IllegalArgumentException](LocalGraph.requireEdgeCount(m))
      assert(e.getMessage.contains(s"$m edges exceed"))
    }
  }

  test("edge ids are canonical-lexicographic and shared by both directions") {
    val g = LocalGraph.fromEdges(4, Seq((2, 3), (0, 1), (1, 2)))
    assert(g.edgeU.toSeq == Seq(0, 1, 2))
    assert(g.edgeV.toSeq == Seq(1, 2, 3))
    assert(TestGraphs.edgeIdOf(g, 0, 1) == 0 && TestGraphs.edgeIdOf(g, 1, 0) == 0)
    assert(TestGraphs.edgeIdOf(g, 1, 2) == 1 && TestGraphs.edgeIdOf(g, 2, 1) == 1)
    assert(TestGraphs.edgeIdOf(g, 2, 3) == 2)
    assert(TestGraphs.edgeIdOf(g, 0, 3) == -1)
  }

  test("neighbor lists are sorted") {
    val g = GraphGen.gnm(50, 200, seed = 1)
    for (v <- 0 until g.n) {
      val nb = TestGraphs.neighborsOf(g, v)
      assert(nb.toSeq == nb.toSeq.sorted, s"unsorted adjacency at $v")
      assert(nb.distinct.length == nb.length)
    }
  }

  test("degrees sum to 2m") {
    val g = GraphGen.gnm(100, 400, seed = 2)
    assert((0 until g.n).map(g.degree).sum == 2 * g.m)
  }

  test("adjEdgeIds is consistent with edgeIdOf") {
    val g = GraphGen.gnm(40, 150, seed = 3)
    for (v <- 0 until g.n; p <- g.offsets(v) until g.offsets(v + 1)) {
      val w = g.adj(p)
      assert(g.adjEdgeIds(p) == TestGraphs.edgeIdOf(g, v, w))
    }
  }

  test("complete graph structure") {
    val g = TestGraphs.complete(7)
    assert(g.n == 7 && g.m == 21)
    assert(g.maxDegree == 6)
    for (u <- 0 until 7; v <- 0 until 7 if u != v) assert(g.hasEdge(u, v))
  }

  test("relabel preserves structure up to renaming") {
    val g = GraphGen.gnm(30, 100, seed = 4)
    val perm = new scala.util.Random(9).shuffle((0 until 30).toVector).toArray
    val h = g.relabel(perm)
    assert(h.m == g.m)
    for ((u, v) <- g.edges) assert(h.hasEdge(perm(u), perm(v)))
  }

  test("empty graph") {
    val g = LocalGraph.empty(5)
    assert(g.n == 5 && g.m == 0 && g.maxDegree == 0)
  }

  test("vertex out of range is rejected") {
    intercept[IllegalArgumentException](LocalGraph.fromEdges(3, Seq((0, 3))))
    intercept[IllegalArgumentException](LocalGraph.fromEdges(3, Seq((-1, 2))))
  }

  test("edges iterator matches edgeU/edgeV") {
    val g = GraphGen.gnm(20, 60, seed = 5)
    assert(g.edges.toSeq == (0 until g.m).map(e => (g.edgeU(e), g.edgeV(e))))
  }
}

class GraphGenTest extends AnyFunSuite {

  test("generators are deterministic in seed") {
    val a = GraphGen.gnm(100, 300, seed = 7)
    val b = GraphGen.gnm(100, 300, seed = 7)
    assert(a.edges.toSeq == b.edges.toSeq)
    val c = GraphGen.powerLaw(200, 500, 1.5, seed = 7)
    val d = GraphGen.powerLaw(200, 500, 1.5, seed = 7)
    assert(c.edges.toSeq == d.edges.toSeq)
  }

  test("gnm produces exactly m edges") {
    val g = GraphGen.gnm(50, 123, seed = 11)
    assert(g.m == 123)
  }

  test("complete bipartite has no odd cycles through one side") {
    val g = TestGraphs.completeBipartite(4, 5)
    assert(g.n == 9 && g.m == 20)
    for (u <- 0 until 4; v <- 0 until 4 if u != v) assert(!g.hasEdge(u, v))
    for (u <- 4 until 9; v <- 4 until 9 if u != v) assert(!g.hasEdge(u, v))
    for (u <- 0 until 4; v <- 4 until 9) assert(g.hasEdge(u, v))
  }

  test("cycle, path, star shapes") {
    assert(TestGraphs.cycle(6).m == 6)
    assert(TestGraphs.path(6).m == 5)
    val s = TestGraphs.star(6)
    assert(s.m == 5 && s.degree(0) == 5)
  }

  test("random tree has n-1 edges") {
    val t = TestGraphs.randomTree(64, seed = 3)
    assert(t.m == 63)
  }

  test("tPlex(n, t) has min degree >= n - t") {
    for (t <- 1 to 4) {
      val g = TestGraphs.tPlex(20, t, seed = t)
      val minDeg = (0 until g.n).map(g.degree).min
      assert(minDeg >= 20 - t, s"t=$t minDeg=$minDeg")
    }
  }

  test("tPlex(n, 1) is the complete graph") {
    val g = TestGraphs.tPlex(10, 1, seed = 5)
    assert(g.m == 45)
  }

  test("twoPlexWithPairs removes exactly the disjoint pairs") {
    val g = TestGraphs.twoPlexWithPairs(10, 3)
    assert(g.m == 45 - 3)
    assert(!g.hasEdge(0, 1) && !g.hasEdge(2, 3) && !g.hasEdge(4, 5))
    assert(g.hasEdge(6, 7) && g.hasEdge(0, 2))
  }

  test("plantCliques adds exactly the clique edges") {
    val g = TestGraphs.plantCliques(LocalGraph.empty(10), Seq(Seq(1, 3, 5, 7)))
    assert(g.m == 6)
    assert(g.hasEdge(1, 3) && g.hasEdge(5, 7) && g.hasEdge(3, 7))
  }

  test("plantRandomCliques guarantees an omega lower bound") {
    val g = TestGraphs.plantRandomCliques(GraphGen.gnm(200, 400, 1), count = 2, size = 8, seed = 2)
    assert(repro.order.MaxClique.omega(g) >= 8)
  }

  test("disjointUnion shifts the second graph") {
    val g = TestGraphs.disjointUnion(TestGraphs.complete(3), TestGraphs.complete(4))
    assert(g.n == 7 && g.m == 3 + 6)
    assert(g.hasEdge(0, 1) && g.hasEdge(3, 6) && !g.hasEdge(2, 3))
  }

  // Every SynthGraphs stand-in draws on these three streams.
  test("the stand-ins' generators match their pinned edge-list hashes") {
    def h(g: LocalGraph) = Seq(g.m, java.util.Arrays.hashCode(g.edgeU), java.util.Arrays.hashCode(g.edgeV))
    assert(h(GraphGen.gnm(2000, 8000, 1)) == Seq(8000, 169093082, 586167340))
    assert(h(GraphGen.gnp(200, 0.3, 2)) == Seq(6069, 542844543, -862721617))
    assert(h(GraphGen.powerLaw(4000, 8000, 1.6, 3)) == Seq(8000, -1927267678, 858626723))
  }

  test("powerLaw degree skew: top vertex beats the median") {
    val g = GraphGen.powerLaw(500, 2000, 1.6, seed = 13)
    val degs = (0 until g.n).map(g.degree).sorted
    assert(g.maxDegree > 4 * math.max(1, degs(g.n / 2)))
  }
}
