package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{LocalGraph, TestGraphs}

/** Direct tests of the early-termination listers (Section 5) against brute
  * force, in both counting and listing mode.
  */
class PlexListersTest extends AnyFunSuite {

  /** Runs tryEarlyTerminate on the whole graph g as one branch. */
  private def run(g: LocalGraph, l: Int, t: Int, wantCliques: Boolean): Either[Long, Set[Seq[Int]]] = {
    val nv = g.n
    val words = (nv + 63) >>> 6
    val rows = new Array[Long](nv * words)
    for ((u, v) <- g.edges) {
      rows(u * words + (v >>> 6)) |= 1L << (v & 63)
      rows(v * words + (u >>> 6)) |= 1L << (u & 63)
    }
    val verts = Array.tabulate(nv)(identity)
    val all = new Array[Long](words)
    BitDag.fillAll(all, nv)
    val stack = new Array[Int](nv + l)
    if (wantCliques) {
      val sink = new CollectingSink
      val handled = PlexListers.tryEarlyTerminate(stack, 0, all, nv, rows, words, verts, l, t, sink)
      assert(handled, s"expected t=$t to handle this graph")
      Right(sink.cliques.map(_.toSeq).toSet)
    } else {
      val sink = new CountingSink
      val handled = PlexListers.tryEarlyTerminate(stack, 0, all, nv, rows, words, verts, l, t, sink)
      assert(handled, s"expected t=$t to handle this graph")
      Left(sink.total)
    }
  }

  /** Runs tryEarlyTerminate on `h` embedded at scattered ids of a 150-vertex
    * host (three words per row): the branch is the member set, the host has
    * each pair not inside it as an edge with probability 1/2, emission maps
    * id i to 1000 + i, and the stack holds the prefix S = {-1, -2}.
    */
  private def runEmbedded(h: LocalGraph, l: Int, t: Int, sink: CliqueSink): (Boolean, Array[Int]) = {
    val n = 150
    val rnd = new scala.util.Random(h.n * 31 + h.m)
    val ids = rnd.shuffle((0 until n).toVector).take(h.n).toArray
    val isMember = ids.toSet
    val rows = new Array[Long](n * 3)
    def link(a: Int, b: Int): Unit = {
      rows(a * 3 + (b >>> 6)) |= 1L << (b & 63)
      rows(b * 3 + (a >>> 6)) |= 1L << (a & 63)
    }
    for ((u, v) <- h.edges) link(ids(u), ids(v))
    for (a <- 0 until n; b <- a + 1 until n if !(isMember(a) && isMember(b)) && rnd.nextBoolean()) link(a, b)
    val c = new Array[Long](3)
    for (u <- ids) c(u >>> 6) |= 1L << (u & 63)
    val stack = new Array[Int](2 + l)
    stack(0) = -1; stack(1) = -2
    val handled = PlexListers.tryEarlyTerminate(stack, 2, c, h.n, rows, 3, Array.tabulate(n)(1000 + _), l, t, sink)
    (handled, ids)
  }

  for ((name, h, t) <- Seq(
        ("a clique", TestGraphs.complete(10), 1),
        ("a 2-plex", TestGraphs.twoPlexWithPairs(12, 3), 2),
        ("a 3-plex", TestGraphs.tPlex(14, 3, seed = 5), 3),
        ("a 4-plex", TestGraphs.tPlex(14, 4, seed = 6), 4));
       l <- 3 to 5) {
    test(s"members of a larger graph, $name, l=$l: count and list match brute force on the induced subgraph") {
      val counting = new CountingSink
      val (countHandled, _) = runEmbedded(h, l, t, counting)
      assert(countHandled)
      assert(counting.total == BruteForce.count(h, l))
      val listing = new CollectingSink
      val (listHandled, ids) = runEmbedded(h, l, t, listing)
      assert(listHandled)
      val want = BruteForce.list(h, l).map(q => (Seq(-2, -1) ++ q.map(v => 1000 + ids(v)).sorted))
      assert(listing.cliques.map(_.toSeq).toSet == want)
      assert(listing.cliques.length == want.size, "a clique was emitted twice")
    }
  }

  test("members of a larger graph sparser than cnt - t are refused and emit nothing") {
    // A cycle among the members: their host rows are dense, their induced
    // degrees are 2.
    val h = TestGraphs.cycle(10)
    for (t <- 1 to 7) {
      val counting = new CountingSink
      assert(!runEmbedded(h, 3, t, counting)._1, s"t=$t")
      assert(counting.total == 0)
      val listing = new CollectingSink
      assert(!runEmbedded(h, 3, t, listing)._1, s"t=$t")
      assert(listing.cliques.isEmpty)
    }
  }

  test("clique path: counts are binomials") {
    val g = TestGraphs.complete(12)
    for (l <- 1 to 10) assert(run(g, l, 1, wantCliques = false) == Left(Combinatorics.binomial(12, l)))
  }

  test("clique path: listing matches brute force") {
    val g = TestGraphs.complete(8)
    for (l <- 2 to 6) assert(run(g, l, 1, wantCliques = true) == Right(BruteForce.list(g, l)))
  }

  for (pairs <- Seq(1, 2, 4); l <- 2 to 6) {
    test(s"kC2Plex on K_12 minus $pairs pairs, l=$l: count and list match brute force") {
      val g = TestGraphs.twoPlexWithPairs(12, pairs)
      val want = BruteForce.list(g, l)
      assert(run(g, l, 2, wantCliques = false) == Left(want.size.toLong))
      assert(run(g, l, 2, wantCliques = true) == Right(want))
    }
  }

  test("kC2Plex count identity: sum_j C(f, l-j) C(p, j) 2^j") {
    val n = 14; val pairs = 5
    val g = TestGraphs.twoPlexWithPairs(n, pairs)
    val f = n - 2 * pairs
    for (l <- 1 to n) {
      val expect = (0 to l).map { j =>
        Combinatorics.binomial(f, l - j) * Combinatorics.binomial(pairs, j) * (1L << j)
      }.sum
      if (l <= n) {
        val nvOk = g.n >= l
        if (nvOk) assert(run(g, l, 2, wantCliques = false) == Left(expect), s"l=$l")
      }
    }
  }

  for (t <- 3 to 5; l <- 2 to 6) {
    test(s"kCtPlex on a $t-plex(16), l=$l: count and list match brute force") {
      val g = TestGraphs.tPlex(16, t, seed = t * 10 + l)
      val want = BruteForce.list(g, l)
      assert(run(g, l, t, wantCliques = false) == Left(want.size.toLong))
      assert(run(g, l, t, wantCliques = true) == Right(want))
    }
  }

  test("kCtPlex handles graphs with no universal vertices") {
    // 3-plex where every vertex misses some neighbor.
    val g = TestGraphs.tPlex(10, 3, seed = 99)
    val minDeg = (0 until g.n).map(g.degree).min
    if (minDeg < g.n - 1) {
      for (l <- 2 to 5)
        assert(run(g, l, 3, wantCliques = false) == Left(BruteForce.count(g, l)))
    }
  }

  test("dispatch refuses graphs sparser than the threshold") {
    val g = TestGraphs.cycle(8) // min degree 2 << 8 - t for small t
    val rows = new Array[Long](8)
    for ((u, v) <- g.edges) { rows(u) |= 1L << v; rows(v) |= 1L << u }
    val sink = new CountingSink
    val handled = PlexListers.tryEarlyTerminate(
      new Array[Int](8), 0, Array(0xffL), 8, rows, 1, Array.tabulate(8)(identity), 3, 3, sink)
    assert(!handled)
    assert(sink.total == 0)
  }

  test("partial clique prefix is preserved in emissions") {
    val g = TestGraphs.complete(5)
    val rows = new Array[Long](5)
    for ((u, v) <- g.edges) { rows(u) |= 1L << v; rows(v) |= 1L << u }
    val stack = new Array[Int](8)
    stack(0) = 100; stack(1) = 200 // pretend S = {100, 200}
    val sink = new CollectingSink
    PlexListers.tryEarlyTerminate(stack, 2, Array(0x1fL), 5, rows, 1, Array.tabulate(5)(identity), 2, 2, sink)
    assert(sink.cliques.nonEmpty)
    assert(sink.cliques.forall(c => c.contains(100) && c.contains(200) && c.length == 4))
  }

  test("l = 1 on a 2-plex lists every vertex") {
    val g = TestGraphs.twoPlexWithPairs(8, 2)
    assert(run(g, 1, 2, wantCliques = false) == Left(8L))
  }

  test("l equal to the plex's max clique size") {
    val g = TestGraphs.twoPlexWithPairs(10, 3) // omega = 7 (all F + one per pair)
    assert(run(g, 7, 2, wantCliques = false) == Left(BruteForce.count(g, 7)))
    assert(run(g, 8, 2, wantCliques = false) == Left(0L))
  }
}
