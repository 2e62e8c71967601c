package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{GraphGen, LocalGraph, SynthGraphs, TestGraphs}

/** Cross-checks every kernel variant against the brute-force reference on a
  * shared set of small graphs — both counts and the exact clique sets.
  */
object KernelFixtures {

  val graphs: Seq[(String, LocalGraph)] = Seq(
    "K9" -> TestGraphs.complete(9),
    "bipartite5x5" -> TestGraphs.completeBipartite(5, 5),
    "gnp40" -> GraphGen.gnp(40, 0.3, 1),
    "gnp25dense" -> GraphGen.gnp(25, 0.5, 2),
    "planted" -> TestGraphs.plantCliques(GraphGen.gnm(60, 150, 3), Seq(0 until 9, 20 until 27)),
    "powerlaw" -> GraphGen.powerLaw(120, 500, 1.5, 4),
    "twoComponents" -> TestGraphs.disjointUnion(TestGraphs.complete(7), GraphGen.gnp(30, 0.35, 5)),
    "sparse" -> GraphGen.gnm(80, 120, 6),
    "cycle12" -> TestGraphs.cycle(12),
    "counterexample" -> LocalGraph.fromEdges(4, Seq((0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
    // A hub adjacent to all 299 other vertices, inside a planted 9-clique and
    // over a gnp graph: its list is far longer than any candidate set, so
    // lookups both into and from it take long gallops.
    "hub" -> TestGraphs.plantCliques(
      LocalGraph.fromEdges(300, TestGraphs.star(300).edges ++
        GraphGen.gnp(40, 0.3, 7).edges.map { case (u, v) => (u + 100, v + 100) }),
      Seq(0 +: (200 until 208)))
  )

  val ks: Seq[Int] = 3 to 6

  /** Every algorithm instance exercised by the correctness sweep. */
  val algos: Seq[AlgoConfig] = Seq(
    Algos.Degen,
    Algos.DDegree,
    Algos.DDegCol,
    Algos.SDegree,
    Algos.BitCol,
    Algos.DDegColPlus,
    Algos.BitColPlus,
    Algos.DDegCol.copy(edgeParallel = true),
    Algos.BitCol.copy(edgeParallel = true),
    VbbkcAlgo(SubColor, bitset = true, rule2 = true, et = EtFixed(3)),
    VbbkcAlgo(SubDegree, bitset = true, et = EtFixed(2)),
    EbbkcAlgo(TrussOrdering),
    EbbkcAlgo(TrussOrdering, et = EtFixed(2)),
    EbbkcAlgo(TrussOrdering, et = EtFixed(4)),
    EbbkcAlgo(ColorOrdering, rule2 = true),
    EbbkcAlgo(ColorOrdering, rule2 = false),
    EbbkcAlgo(ColorOrdering, rule2 = true, et = EtFixed(3)),
    EbbkcAlgo(HybridOrdering, rule2 = true),
    EbbkcAlgo(HybridOrdering, rule2 = false),
    EbbkcAlgo(HybridOrdering, rule2 = true, et = EtFixed(1)),
    EbbkcAlgo(HybridOrdering, rule2 = true, et = EtFixed(2)),
    EbbkcAlgo(HybridOrdering, rule2 = true, et = EtFixed(3)),
    EbbkcAlgo(HybridOrdering, rule2 = true, et = EtFixed(5)),
    EbbkcAlgo(HybridOrdering, rule2 = true, et = EtAuto)
  )

  /** A complete tripartite core K(70, 70, 70) with a 6-clique planted in
    * each part, over a sparse background. Every core edge lies in at least
    * 70 triangles, so tau >= 65 and the first-peeled edges' EBBkC-H branch
    * graphs (a part and its planted clique) span two words, while later and
    * background edges get one-word branch graphs.
    */
  lazy val mixedWidth: LocalGraph = {
    val a = 70
    val n = 3 * a + 90
    val core = for (p <- 0 until 3; q <- p + 1 until 3; i <- 0 until a; j <- 0 until a) yield (p * a + i, q * a + j)
    TestGraphs.plantCliques(
      LocalGraph.fromEdges(n, core ++ GraphGen.gnm(n, 500, 12).edges),
      Seq(0 until 6, a until a + 6, 2 * a until 2 * a + 6))
  }

  /** Graphs whose bitset subproblems have 63 to 65 and 127 to 129 vertices:
    * one, two and three words, full or with one bit in the last word. The
    * dense gnp has VBBkC subproblems (out-neighborhoods in the degeneracy
    * DAG) of 60 to 85 vertices. "bicliques" is a disjoint union of complete
    * bipartite graphs K(a, a), a in {63, 64, 65, 127, 128, 129}, each with a
    * 6-clique planted in both sides and random edges inside them: a VBBkC
    * subproblem there is a whole side, and so is the EBBkC-C subproblem of
    * an edge inside the other side.
    */
  lazy val wordBoundary: Seq[(String, LocalGraph)] = Seq(
    "gnp200" -> GraphGen.gnp(200, 0.5, 26),
    "bicliques" -> Seq(63, 64, 65, 127, 128, 129).map { a =>
      val sides = for (i <- 0 until a; j <- a until 2 * a) yield (i, j)
      TestGraphs.plantCliques(
        LocalGraph.fromEdges(2 * a, sides ++ GraphGen.gnm(2 * a, 150, a).edges), Seq(0 until 6, a until a + 6))
    }.reduce(TestGraphs.disjointUnion))

  lazy val expected: Map[(String, Int), Set[Seq[Int]]] = (for {
    (name, g) <- graphs
    k <- ks
  } yield (name, k) -> BruteForce.list(g, k)).toMap
}

class KernelCountTest extends AnyFunSuite {
  import KernelFixtures._

  for (cfg <- algos; (name, g) <- graphs; k <- ks)
    test(s"${cfg.name} count on $name, k=$k") {
      assert(KClique.count(g, k, cfg) == expected((name, k)).size.toLong)
    }
}

class KernelListTest extends AnyFunSuite {
  import KernelFixtures._

  // Listing mode forces full enumeration through every ET path too; check
  // the exact clique sets for a representative subset of algorithms.
  private val listAlgos: Seq[AlgoConfig] = Seq(
    Algos.Degen,
    Algos.BitCol,
    Algos.DDegCol.copy(edgeParallel = true),
    VbbkcAlgo(SubColor, bitset = true, rule2 = true, et = EtFixed(3)),
    EbbkcAlgo(TrussOrdering),
    EbbkcAlgo(ColorOrdering, rule2 = true),
    EbbkcAlgo(HybridOrdering, rule2 = true),
    EbbkcAlgo(HybridOrdering, rule2 = true, et = EtFixed(2)),
    EbbkcAlgo(HybridOrdering, rule2 = true, et = EtFixed(4))
  )

  for (cfg <- listAlgos; (name, g) <- graphs; k <- ks)
    test(s"${cfg.name} lists exact clique set on $name, k=$k") {
      val listed = KClique.list(g, k, cfg).map(_.toSeq)
      val got = listed.toSet
      val want = expected((name, k))
      assert(got.size == listed.size, "duplicate cliques emitted")
      assert(got == want,
        s"missing=${(want -- got).take(3)} extra=${(got -- want).take(3)}")
    }
}

/** The O(1) top-level prunes are rank cutoffs: truss numbers and coreness
  * never decrease along their peels.
  */
class PrepCutTest extends AnyFunSuite {
  import KernelFixtures.graphs

  for ((name, g) <- graphs)
    test(s"EBBkC and VBBkC cutoffs count the low-truss edges and low-core vertices on $name") {
      val truss = repro.order.TrussDecomposition.run(g)
      val core = repro.order.CoreDecomposition.run(g)
      for (k <- 3 to 12) {
        val e = EbbkcPrep.build(g, k, Algos.EBBkCET)
        assert(e.cut == truss.trussNumber.count(_ < k), s"k=$k")
        assert((0 until g.m).forall(f => e.rank(f) < e.cut || truss.trussNumber(f) >= k), s"k=$k")
        if (k > truss.tau + 2) assert(e.cut == g.m, s"k=$k")
        assert(VbbkcPrep.build(g, k, Algos.BitCol).cut == core.coreness.count(_ < k - 1), s"k=$k")
      }
    }
}

class KernelEdgeCaseTest extends AnyFunSuite {
  import KernelFixtures.mixedWidth

  test("empty graph yields zero cliques") {
    for (cfg <- Seq[AlgoConfig](Algos.EBBkCET, Algos.BitCol, Algos.Degen))
      assert(KClique.count(LocalGraph.empty(10), 4, cfg) == 0L)
  }

  test("k larger than omega yields zero") {
    val g = GraphGen.gnp(30, 0.2, 1)
    val omega = repro.order.MaxClique.omega(g)
    for (cfg <- Seq[AlgoConfig](Algos.EBBkCET, Algos.EBBkC, Algos.BitCol))
      assert(KClique.count(g, omega + 1, cfg) == 0L)
  }

  test("k equal to omega counts the maximum cliques") {
    val g = TestGraphs.plantCliques(GraphGen.gnm(100, 250, 2), Seq(0 until 12))
    assert(KClique.count(g, 12, Algos.EBBkCET) == 1L)
    assert(KClique.count(g, 12, Algos.BitCol) == 1L)
  }

  test("complete graph counts are binomials across algorithms and k") {
    val g = TestGraphs.complete(14)
    for (k <- 3 to 12; cfg <- Seq[AlgoConfig](Algos.EBBkCET, Algos.EBBkC, Algos.BitCol, Algos.DDegree))
      assert(KClique.count(g, k, cfg) == Combinatorics.binomial(14, k), s"k=$k ${cfg.name}")
  }

  test("k = 3 equals triangle count from truss supports") {
    val g = GraphGen.powerLaw(200, 900, 1.5, 8)
    val triangles = Triangles.count(g)
    for (cfg <- Seq[AlgoConfig](Algos.EBBkCET, Algos.Degen, Algos.SDegree))
      assert(KClique.count(g, 3, cfg) == triangles)
  }

  test("k below 3 is rejected") {
    val g = TestGraphs.complete(5)
    intercept[IllegalArgumentException](KClique.count(g, 2, Algos.EBBkCET))
    intercept[IllegalArgumentException](KClique.count(g, 2, Algos.BitCol))
  }

  test("disjoint union counts add up") {
    val a = GraphGen.gnp(25, 0.4, 3)
    val b = GraphGen.gnp(30, 0.35, 4)
    val u = TestGraphs.disjointUnion(a, b)
    for (k <- 3 to 5)
      assert(
        KClique.count(u, k, Algos.EBBkCET) ==
          KClique.count(a, k, Algos.EBBkCET) + KClique.count(b, k, Algos.EBBkCET))
  }

  test("relabeling leaves counts invariant") {
    val g = GraphGen.gnp(35, 0.3, 5)
    val perm = new scala.util.Random(7).shuffle((0 until g.n).toVector).toArray
    val h = g.relabel(perm)
    for (k <- 3 to 5; cfg <- Seq[AlgoConfig](Algos.EBBkCET, Algos.BitCol))
      assert(KClique.count(g, k, cfg) == KClique.count(h, k, cfg))
  }

  test("appendix-B counterexample graph: 3-cliques via truss ordering") {
    // The 4-vertex, 5-edge graph of Figure 13; its two triangles must be
    // found regardless of which branches a vertex ordering could not form.
    val g = LocalGraph.fromEdges(4, Seq((0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
    for (cfg <- KernelFixtures.algos)
      assert(KClique.count(g, 3, cfg) == 2L, cfg.name)
  }

  // `KernelFixtures.ks` stops at 6, so no sweep reaches a branch at l >= 5
  // above the in-place leaf counts of EBBkC-H.
  test("k = 7..9: every algorithm's counts and listings equal brute force") {
    val graphs = KernelFixtures.graphs.filter { case (name, _) => Set("planted", "gnp25dense", "K9")(name) }
    assert(graphs.size == 3)
    for ((name, g) <- graphs; k <- 7 to 9) {
      val want = BruteForce.list(g, k)
      for (cfg <- KernelFixtures.algos) {
        assert(KClique.count(g, k, cfg) == want.size.toLong, s"${cfg.name} count on $name, k=$k")
        val listed = KClique.list(g, k, cfg).map(_.toSeq)
        assert(listed.size == want.size && listed.toSet == want, s"${cfg.name} listing on $name, k=$k")
      }
    }
  }

  test("algorithm names in the correctness sweep are unique") {
    val names = KernelFixtures.algos.map(_.name)
    assert(names.distinct == names, names.diff(names.distinct))
  }

  test("VBBkC runs ET only on bitset rows and Rule (2) only under the color sub-ordering") {
    intercept[IllegalArgumentException](VbbkcAlgo(SubDegree, et = EtFixed(2)))
    intercept[IllegalArgumentException](VbbkcAlgo(SubDegree, rule2 = true))
  }

  test("counts past Long.MaxValue throw instead of wrapping (K70, k=35)") {
    // C(70, 35) ~ 1.1e20; both ET paths reach it through binomials.
    val g = TestGraphs.complete(70)
    for (cfg <- Seq[AlgoConfig](Algos.EBBkCET, Algos.VBBkCET))
      intercept[ArithmeticException](KClique.count(g, 35, cfg))
    assert(Combinatorics.binomial(66, 33) == 7219428434016265740L)
    intercept[ArithmeticException](Combinatorics.binomial(67, 33))
  }

  // Branch graphs and out-neighborhoods of more than 64 vertices take the
  // multi-word bitset paths and grow the kernels' per-depth rows. K70
  // (tau = 68, delta = 69) reaches the word-row recursion DagBranch both
  // one vertex per step (BitCol) and two steps per edge branch: from
  // EBBkC-H without ET and only at k = 5, 6 (leaf levels), from EBBkC-C at
  // every k, since its first edges' common out-neighborhoods hold up to 68
  // vertices (EBBkC-C+ET settles those at its top-level ET probe from k = 5
  // on). The dense gnp (tau = 45, delta = 71) reaches only the VBBkC
  // baselines' multi-word rows: all its EBBkC-H branch graphs are one word.
  // The mixed-width fixture below runs the two-step DagBranch with ET from
  // EBBkC-H and EBBkC-C, and EBBkC-T's two-word rows and ET probe;
  // BranchPinTest pins the order in which these paths emit.
  test("multi-word candidate sets: K70 counts are binomials") {
    val g = TestGraphs.complete(70)
    val cfgs = Seq[AlgoConfig](Algos.EBBkC, Algos.EBBkC.copy(rule2 = false), Algos.BitCol, Algos.BitColPlus,
      EbbkcAlgo(ColorOrdering), Algos.EBBkCC_ET)
    for (k <- 3 to 6; cfg <- cfgs)
      assert(KClique.count(g, k, cfg) == Combinatorics.binomial(70, k), s"k=$k ${cfg.name}")
  }

  test("multi-word candidate sets: dense gnp counts agree with EBBkC-T") {
    val g = GraphGen.gnp(110, 0.75, 11)
    for (k <- 3 to 5) {
      val want = KClique.count(g, k, EbbkcAlgo(TrussOrdering))
      for (cfg <- Seq[AlgoConfig](Algos.EBBkC, Algos.EBBkCET, Algos.BitCol, Algos.VBBkCET, Algos.DDegCol))
        assert(KClique.count(g, k, cfg) == want, s"k=$k ${cfg.name}")
    }
  }

  /** The k-cliques `cfg` lists in `g` (of at most 4096 vertices), sorted,
    * each as one Long of its sorted ids, 12 bits each: millions of cliques
    * fit.
    */
  private def listing(g: LocalGraph, k: Int, cfg: AlgoConfig): Array[Long] = {
    val sink = new CliqueSink {
      var keys = new Array[Long](1 << 16)
      var n = 0
      private val ids = new Array[Int](k)
      override def wantsCliques: Boolean = true
      override def onClique(stack: Array[Int], len: Int): Unit = {
        System.arraycopy(stack, 0, ids, 0, len)
        java.util.Arrays.sort(ids, 0, len)
        var key = 0L
        var i = 0
        while (i < len) { key = (key << 12) | ids(i); i += 1 }
        if (n == keys.length) keys = java.util.Arrays.copyOf(keys, 2 * n)
        keys(n) = key; n += 1
      }
      override def onCount(c: Long): Unit = fail("listing run received a count")
    }
    val prep = KClique.prepare(g, k, cfg)
    val kernel = prep.newKernel()
    for (id <- 0 until prep.numSubproblems) kernel.run(id, sink)
    val out = java.util.Arrays.copyOf(sink.keys, sink.n)
    java.util.Arrays.sort(out)
    out
  }

  /** Asserts that EBBkC+ET lists every k-clique of `g` once, as BitCol does. */
  private def assertListingsAgree(g: LocalGraph, k: Int, clue: String): Unit = {
    val et = listing(g, k, Algos.EBBkCET)
    assert(et.length == KClique.count(g, k, Algos.BitCol), clue)
    assert((1 until et.length).forall(i => et(i - 1) != et(i)), s"$clue: duplicate cliques emitted")
    assert(java.util.Arrays.equals(et, listing(g, k, Algos.BitCol)), clue)
  }

  test("multi-word candidate sets: dense gnp listings of EBBkC+ET equal BitCol's") {
    val g = GraphGen.gnp(110, 0.75, 11)
    for (k <- 4 to 5) assertListingsAgree(g, k, s"k=$k")
  }

  test("word-boundary fixtures: subproblems of 63..65 and 127..129 vertices") {
    import KernelFixtures.wordBoundary
    def hist(sizes: Seq[Int]): Set[Int] = sizes.filter(s => (63 to 65).contains(s) || (127 to 129).contains(s)).toSet
    // VBBkC: out-neighborhoods in the degeneracy DAG.
    def vbbkc(g: LocalGraph): Seq[Int] = {
      val h = VbbkcPrep.build(g, 4, Algos.BitCol).gRel
      (0 until h.n).map(v => h.offsets(v + 1) - h.outStart(v))
    }
    // EBBkC-C: common out-neighborhoods of the edges of the color DAG.
    def ebbkcC(g: LocalGraph): Seq[Int] = {
      val h = EbbkcPrep.build(g, 4, Algos.EBBkCC_ET).g
      val out = Array.tabulate(h.n)(v => java.util.Arrays.copyOfRange(h.adj, h.outStart(v), h.offsets(v + 1)))
      (0 until h.m).map(e => IntArrays.intersectionSize(out(h.edgeU(e)), out(h.edgeV(e))))
    }
    val Seq(gnp, bicliques) = wordBoundary.map(_._2)
    assert(hist(vbbkc(gnp)) == Set(63, 64, 65))
    assert(hist(vbbkc(bicliques)) == Set(63, 64, 65, 127, 128, 129))
    assert(hist(ebbkcC(bicliques)) == Set(63, 64, 65, 127, 128, 129))
  }

  test("word-boundary fixtures: every bitset configuration's counts at k = 4..6 equal DDegree's") {
    val cfgs = Seq[AlgoConfig](Algos.EBBkC, Algos.EBBkCET, Algos.EBBkCT_ET, Algos.EBBkCC_ET, Algos.BitCol,
      Algos.SDegree, Algos.VBBkCET)
    for ((name, g) <- KernelFixtures.wordBoundary; k <- 4 to 6) {
      val want = KClique.count(g, k, Algos.DDegree)
      assert(want > 0, s"$name k=$k")
      for (cfg <- cfgs) assert(KClique.count(g, k, cfg) == want, s"$name k=$k ${cfg.name}")
    }
  }

  test("word-boundary fixtures: EBBkC+ET's listing at k=5 equals BitCol's") {
    for ((name, g) <- KernelFixtures.wordBoundary) assertListingsAgree(g, 5, name)
  }

  test("mixed-width fixture: branch graphs of more and of at most 64 vertices") {
    val g = mixedWidth
    val truss = repro.order.TrussDecomposition.run(g)
    val rank = truss.edgeRank
    // |VSet(e)|: common neighbors through strictly later-ranked edges (Eq. 5).
    val sizes = (0 until g.m).map { e =>
      val u = g.edgeU(e); val v = g.edgeV(e)
      TestGraphs.neighborsOf(g, u).count { w =>
        val ea = TestGraphs.edgeIdOf(g, u, w); val eb = TestGraphs.edgeIdOf(g, v, w)
        eb >= 0 && rank(ea) > rank(e) && rank(eb) > rank(e)
      }
    }
    assert(truss.tau >= 65 && sizes.max == truss.tau, s"tau = ${truss.tau}")
    assert(sizes.count(_ > 64) > 0 && sizes.count(s => s >= 6 && s <= 64) > 0)
  }

  test("mixed-width fixture: EBBkC-H counts at k = 5..8 equal EBBkC-T's and BitCol's") {
    val g = mixedWidth
    val cfgs = Seq[AlgoConfig](Algos.EBBkC, Algos.EBBkC.copy(rule2 = false), Algos.EBBkCET) ++
      (1 to 3).map(t => Algos.EBBkC.copy(et = EtFixed(t))) ++
      Seq(EbbkcAlgo(ColorOrdering), Algos.EBBkCC_ET, Algos.EBBkCT_ET)
    for (k <- 5 to 8) {
      val want = KClique.count(g, k, EbbkcAlgo(TrussOrdering))
      assert(want > 0 && KClique.count(g, k, Algos.BitCol) == want, s"k=$k BitCol")
      for (cfg <- cfgs) assert(KClique.count(g, k, cfg) == want, s"k=$k ${cfg.name}")
    }
  }

  test("mixed-width fixture: EBBkC+ET's listing at k=7 equals BitCol's") {
    // Each clique as one Long: its sorted ids, 9 bits each.
    def keys(cfg: AlgoConfig): Array[Long] =
      KClique.list(mixedWidth, 7, cfg).map(_.sorted.foldLeft(0L)((key, v) => (key << 9) | v)).toArray.sorted
    val et = keys(Algos.EBBkCET)
    val distinct = et.nonEmpty && (1 until et.length).forall(i => et(i - 1) != et(i))
    assert(distinct, "duplicate cliques emitted")
    val same = java.util.Arrays.equals(et, keys(Algos.BitCol))
    assert(same, s"${et.length} cliques listed by EBBkC+ET")
  }

  test("UK stand-in at k=4: EBBkC+ET under 10 s, BitCol under 3 s") {
    // Guards the degree-bounded subproblem builds: walking a hub's whole
    // list in every subproblem it joins took 63.6 s and 7.8 s here.
    val g = SynthGraphs("UK")
    val et = repro.util.Timer.time(KClique.count(g, 4, Algos.EBBkCET))
    val bc = repro.util.Timer.time(KClique.count(g, 4, Algos.BitCol))
    assert(et.result == bc.result)
    assert(et.seconds < 10, f"EBBkC+ET took ${et.seconds}%.1f s")
    assert(bc.seconds < 3, f"BitCol took ${bc.seconds}%.1f s")
  }

  test("EBBkC-C+ET count of the WK stand-in at k=8 under 10 s") {
    // Guards EBBkC-C's branch-graph-local bitset rows: branching on sorted
    // int arrays over one global color DAG took about 24 s here.
    val t = repro.util.Timer.time(KClique.count(SynthGraphs("WK"), 8, Algos.EBBkCC_ET))
    assert(t.result == 98568307L)
    assert(t.seconds < 10, f"EBBkC-C+ET took ${t.seconds}%.1f s")
  }

  test("EBBkC+ET count of the WK stand-in at k=8 allocates under 30 MB") {
    // Guards the allocation-free branching and the kernel-owned DAG scratch:
    // a per-branch `new Array` on the EBBkC-H path brings this back above
    // 1 GB, and building each branch graph's DAG in new arrays to 58 MB.
    val g = SynthGraphs("WK")
    val mx = java.lang.management.ManagementFactory.getThreadMXBean
      .asInstanceOf[com.sun.management.ThreadMXBean]
    val tid = Thread.currentThread.getId
    val before = mx.getThreadAllocatedBytes(tid)
    val count = KClique.count(g, 8, Algos.EBBkCET)
    val mb = (mx.getThreadAllocatedBytes(tid) - before) / 1e6
    assert(count == 98568307L)
    assert(mb < 30, f"allocated $mb%.0f MB")
  }

  test("EBBkC+ET count of the WK stand-in at k=8 makes under 2M sink calls") {
    // Guards the in-place leaf counts: one onCount per branch at l = 2 (or
    // per child of a branch at l <= 4) brings this back to about 18.5M.
    val sink = new CliqueSink {
      var total = 0L
      var calls = 0L
      override def wantsCliques: Boolean = false
      override def onClique(stack: Array[Int], len: Int): Unit = fail("counting run received a clique")
      override def onCount(c: Long): Unit = { total += c; calls += 1 }
    }
    val prep = KClique.prepare(SynthGraphs("WK"), 8, Algos.EBBkCET)
    val kernel = prep.newKernel()
    for (id <- 0 until prep.numSubproblems) kernel.run(id, sink)
    assert(sink.total == 98568307L)
    assert(sink.calls < 2000000L, s"${sink.calls} onCount calls")
  }

  test("EBBkC+ET count of the PO stand-in at k=10 allocates under 40 MB") {
    // Guards the early-termination path, which this count hits about 2M
    // times: copying each passing branch into a new matrix, or a degree
    // array per probe, brings this back near 800 MB; building each branch
    // graph's DAG in new arrays, to 66 MB.
    val g = SynthGraphs("PO")
    val mx = java.lang.management.ManagementFactory.getThreadMXBean
      .asInstanceOf[com.sun.management.ThreadMXBean]
    val tid = Thread.currentThread.getId
    val before = mx.getThreadAllocatedBytes(tid)
    val count = KClique.count(g, 10, Algos.EBBkCET)
    val mb = (mx.getThreadAllocatedBytes(tid) - before) / 1e6
    assert(count == 45362534L)
    assert(mb < 40, f"allocated $mb%.0f MB")
  }

  test("paper running example: 4-cliques under color pruning (Figure 2)") {
    // 8-vertex graph shaped like Figure 2(a): two K4s sharing structure.
    val g = TestGraphs.plantCliques(LocalGraph.empty(8), Seq(Seq(0, 1, 2, 3), Seq(4, 5, 6, 7), Seq(3, 4)))
    assert(KClique.count(g, 4, EbbkcAlgo(ColorOrdering, rule2 = true)) == 2L)
    assert(KClique.count(g, 4, EbbkcAlgo(ColorOrdering, rule2 = false)) == 2L)
  }
}
