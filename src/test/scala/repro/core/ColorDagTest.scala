package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{GraphGen, LocalGraph, SubgraphBuilder, TestGraphs}

/** The shared position-space DAG builder: its word rows equal a reference
  * read off `hasEdge`, `fromBits` reads them as int rows, edges point
  * forward, and the color order gives the invariants Rules (1a), (1b) and
  * (2) rely on.
  */
class ColorDagTest extends AnyFunSuite {

  private val graphs: Seq[LocalGraph] =
    Seq(GraphGen.gnp(40, 0.3, 1), GraphGen.gnp(70, 0.5, 2), GraphGen.gnp(130, 0.2, 3), TestGraphs.complete(64))

  private def bitsOf(row: Array[Long]): Seq[Int] =
    for (q <- 0 until 64 * row.length if (row(q >>> 6) & (1L << (q & 63))) != 0) yield q

  /** Row p of the flat `rows` of `words` words each. */
  private def rowOf(rows: Array[Long], words: Int, p: Int): Array[Long] = rows.slice(p * words, (p + 1) * words)

  /** The word-row DAG of g's subgraph induced on the ascending `verts`, in
    * the order `order` computes from the loaded rows, with the local colors
    * when `colored`.
    */
  private def wordDag(
      g: LocalGraph, verts: Array[Int], order: BitDag => Array[Int], colored: Boolean, outer: Array[Int]): BitDag = {
    val sub = new SubgraphBuilder(g)
    sub.build(verts, verts.length, null, 0)
    val dag = new BitDag
    dag.load(sub, verts.length)
    ColorDag.buildBits(dag, order(dag), if (colored) dag.localColors else null, verts, outer)
    dag
  }

  /** The int-row reference of the word-row builder, read off `hasEdge`
    * alone, on the subgraph of g induced on the ascending `verts` (local id
    * i is `verts(i)`): induced degrees, first-fit colors in degree order and
    * positions by `IntArrays.orderByKeyDesc`.
    */
  private object Reference {
    private def adjacent(g: LocalGraph, verts: Array[Int], i: Int, j: Int): Boolean = g.hasEdge(verts(i), verts(j))

    /** Local ids by induced degree descending, ties by id ascending. */
    def degreeOrder(g: LocalGraph, verts: Array[Int]): Array[Int] = {
      val s = verts.length
      IntArrays.orderByKeyDesc(Array.tabulate(s)(i => (0 until s).count(adjacent(g, verts, i, _))), s)
    }

    /** (position -> local id, color of each local id): each vertex, in
      * degree order, takes the smallest color none of its colored neighbors
      * has; positions by color descending.
      */
    def colorOrder(g: LocalGraph, verts: Array[Int]): (Array[Int], Array[Int]) = {
      val s = verts.length
      val colors = new Array[Int](s)
      for (i <- degreeOrder(g, verts)) {
        val taken = (0 until s).filter(j => colors(j) > 0 && adjacent(g, verts, i, j)).map(colors).toSet
        colors(i) = Iterator.from(1).find(!taken(_)).get
      }
      (IntArrays.orderByKeyDesc(colors, s), colors)
    }

    /** The DAG in `order`: out-rows of larger adjacent positions, colors
      * (0 when `colors` is null) and outer ids by position.
      */
    def build(g: LocalGraph, verts: Array[Int], order: Array[Int], colors: Array[Int], outer: Array[Int]): ColorDag = {
      val s = verts.length
      val out = Array.tabulate(s)(p => (p + 1 until s).filter(q => adjacent(g, verts, order(p), order(q))).toArray)
      val posColors = Array.tabulate(s)(p => if (colors == null) 0 else colors(order(p)))
      new ColorDag(s, out, posColors, Array.tabulate(s)(p => outer(verts(order(p)))))
    }
  }

  /** Asserts that `bits` holds the rows, colors and outer ids of `dag`. */
  private def assertSameDag(bits: BitDag, dag: ColorDag): Unit = {
    assert(bits.s == dag.s && bits.words == (dag.s + 63) / 64)
    assert(bits.colors.take(dag.s).sameElements(dag.colors.take(dag.s)))
    assert(bits.toOuter.take(dag.s).sameElements(dag.toOuter.take(dag.s)))
    for (p <- 0 until dag.s) {
      assert(bitsOf(rowOf(bits.out, bits.words, p)) == dag.out(p).toSeq, s"out row $p")
      val in = (0 until p).filter(q => dag.out(q).contains(p))
      assert(bitsOf(rowOf(bits.und, bits.words, p)) == in ++ dag.out(p), s"und row $p")
    }
  }

  test("orderByKeyDesc sorts by key desc then index asc") {
    val colors = Array(2, 3, 1, 3, 2)
    assert(IntArrays.orderByKeyDesc(colors, colors.length).toSeq == Seq(1, 3, 0, 4, 2))
  }

  test("build and buildBits agree row for row") {
    for (g <- graphs) {
      val verts = Array.tabulate(g.n)(identity)
      val (order, colors) = Reference.colorOrder(g, verts)
      val outer = Array.tabulate(g.n)(v => 1000 + v)
      val dag = Reference.build(g, verts, order, colors, outer)
      assertSameDag(wordDag(g, verts, ColorDag.colorOrder, colored = true, outer), dag)
    }
  }

  // s straddles the word boundaries; the three orders are BitCol's and
  // EBBkC-H's (color), SDegree's (degree) and EBBkC-C's (identity).
  for (s <- Seq(1, 63, 64, 65, 128, 129); kind <- Seq("color", "degree", "identity"))
    test(s"word-row builder equals the int-row reference, s=$s, $kind order") {
      // The members are every other vertex of a host graph, so local ids,
      // host ids and outer ids all differ.
      val g = GraphGen.gnp(2 * s + 3, 0.4, s)
      val verts = Array.tabulate(s)(i => 2 * i + 1)
      val outer = Array.tabulate(g.n)(v => 5000 + v)
      val (order, colors) = kind match {
        case "color"    => Reference.colorOrder(g, verts)
        case "degree"   => (Reference.degreeOrder(g, verts), null)
        case "identity" => (Array.tabulate(s)(identity), null)
      }
      val wordOrder: BitDag => Array[Int] = kind match {
        case "color"    => ColorDag.colorOrder
        case "degree"   => ColorDag.degreeOrder
        case "identity" => ColorDag.identityOrder
      }
      val bits = wordDag(g, verts, wordOrder, colored = colors != null, outer)
      assert(bits.order.take(s).sameElements(order), "order")
      if (colors != null) assert(bits.localColors.take(s).sameElements(colors), "colors")
      else assert(bits.colors.take(s).forall(_ == 0))
      assertSameDag(bits, Reference.build(g, verts, order, colors, outer))
    }

  for (s <- Seq(1, 64, 65, 129))
    test(s"fromBits rows equal the word rows, s=$s") {
      val g = GraphGen.gnp(2 * s + 3, 0.4, s)
      val verts = Array.tabulate(s)(i => 2 * i + 1)
      val bits = wordDag(g, verts, ColorDag.colorOrder, colored = true, Array.tabulate(g.n)(v => 5000 + v))
      val dag = ColorDag.fromBits(bits)
      assert(dag.s == s && (dag.colors eq bits.colors) && (dag.toOuter eq bits.toOuter))
      for (p <- 0 until s) assert(dag.out(p).toSeq == bitsOf(rowOf(bits.out, bits.words, p)), s"out row $p")
    }

  test("positions relabel the graph and every out edge points to a larger position") {
    for (g <- graphs) {
      val bits = wordDag(g, Array.tabulate(g.n)(identity), ColorDag.degreeOrder, colored = false, null)
      val dag = ColorDag.fromBits(bits)
      assert(dag.colors.take(dag.s).forall(_ == 0))
      assert(dag.toOuter.take(dag.s).sameElements(bits.order.take(dag.s)))
      for (p <- 0 until dag.s) {
        assert(dag.out(p).forall(_ > p))
        assert(dag.out(p).toSeq == dag.out(p).distinct.sorted.toSeq)
        for (q <- dag.out(p)) assert(g.hasEdge(dag.toOuter(p), dag.toOuter(q)))
      }
      assert(dag.out.map(_.length).sum == g.m)
    }
  }

  test("colorOrder colors properly and colors never increase with position") {
    for (g <- graphs) {
      val bits = wordDag(g, Array.tabulate(g.n)(identity), ColorDag.colorOrder, colored = true, null)
      assert(bits.order.take(g.n).sorted.sameElements(0 until g.n))
      val dag = ColorDag.fromBits(bits)
      for (p <- 0 until dag.s; q <- dag.out(p)) assert(dag.colors(p) != dag.colors(q), s"edge $p-$q")
      for (p <- 1 until dag.s) assert(dag.colors(p - 1) >= dag.colors(p), s"position $p")
    }
  }

  test("one-word BitDag leaf helpers equal ColorDag's on random member sets") {
    // Keeps every emitted clique (stack prefix included) and sums the counts.
    final class Recorder(listing: Boolean) extends CliqueSink {
      val cliques = scala.collection.mutable.ArrayBuffer.empty[Seq[Int]]
      var total = 0L
      override def wantsCliques: Boolean = listing
      override def onClique(stack: Array[Int], len: Int): Unit = cliques += stack.take(len).toSeq
      override def onCount(c: Long): Unit = total += c
    }
    val rnd = new scala.util.Random(17)
    for (g <- Seq(GraphGen.gnp(40, 0.3, 4), GraphGen.gnp(60, 0.5, 5))) {
      val outer = Array.tabulate(g.n)(v => 1000 + v)
      val bits = wordDag(g, Array.tabulate(g.n)(identity), ColorDag.colorOrder, colored = true, outer)
      val dag = ColorDag.fromBits(bits)
      assertSameDag(bits, dag)
      assert(bits.words == 1)
      val numColors = dag.colors.take(dag.s).distinct.length
      val full = -1L >>> (64 - dag.s)
      for (i <- 0 until 200) {
        // The empty and full sets, then random ones of about s/2 and s/4 members.
        val w = if (i < 2) i * full else full & rnd.nextLong() & (if (i % 2 == 0) rnd.nextLong() else -1L)
        val row = Array(w)
        val c = bitsOf(row).toArray
        // pairsIn and hasColors also take the set as a bare Long.
        assert(bits.pairsIn(row) == dag.pairsIn(c) && bits.pairsIn(w) == dag.pairsIn(c))
        for (need <- 1 to numColors + 1) {
          val want = dag.hasColors(c, need)
          assert(bits.hasColors(row, need) == want && bits.hasColors(w, need) == want, s"need=$need")
        }
        for (listing <- Seq(false, true)) {
          val stack = Array(7, 8, 0, 0)
          val (a, b) = (new Recorder(listing), new Recorder(listing))
          bits.emitSingles(row, c.length, stack, 2, a); BitDag.emitSingles(c, c.length, dag.toOuter, stack, 2, b)
          bits.emitPairs(row, stack, 2, a); dag.emitPairs(c, stack, 2, b)
          assert(a.total == b.total && a.cliques == b.cliques)
          assert(a.cliques.forall(_.take(2) == Seq(7, 8)))
          if (listing) assert(a.cliques.length == c.length + dag.pairsIn(c))
        }
      }
    }
  }

  test("the global EBBkC-C DAG is in color-descending order") {
    // EBBkC-C's prep relabels the graph into color-position space.
    for (g <- graphs) {
      val prep = EbbkcPrep.build(g, 4, EbbkcAlgo(ColorOrdering))
      for (p <- 1 until prep.g.n) assert(prep.colors(p - 1) >= prep.colors(p), s"position $p")
      val mapped = prep.g.edges.map { case (u, v) =>
        val (a, b) = (prep.toOuter(u), prep.toOuter(v))
        (math.min(a, b), math.max(a, b))
      }.toSet
      assert(prep.g.m == g.m && mapped == g.edges.toSet)
    }
  }
}
