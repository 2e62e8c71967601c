package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{GraphGen, LocalGraph}

/** The shared position-space DAG builder: int and bitset rows agree, edges
  * point forward, and the color order gives the invariants Rules (1a), (1b)
  * and (2) rely on.
  */
class ColorDagTest extends AnyFunSuite {

  private val graphs: Seq[LocalGraph] =
    Seq(GraphGen.gnp(40, 0.3, 1), GraphGen.gnp(70, 0.5, 2), GraphGen.gnp(130, 0.2, 3), GraphGen.complete(64))

  private def adjLists(g: LocalGraph): Array[Array[Int]] = Array.tabulate(g.n)(g.neighborsOf)

  private def bitsOf(row: Array[Long]): Seq[Int] =
    for (q <- 0 until 64 * row.length if (row(q >>> 6) & (1L << (q & 63))) != 0) yield q

  test("orderByKeyDesc sorts by key desc then index asc") {
    val colors = Array(2, 3, 1, 3, 2)
    assert(IntArrays.orderByKeyDesc(colors, colors.length).toSeq == Seq(1, 3, 0, 4, 2))
  }

  test("build and buildBits agree row for row") {
    for (g <- graphs) {
      val adjL = adjLists(g)
      val (order, colors) = ColorDag.colorOrder(adjL)
      val outer = Array.tabulate(g.n)(v => 1000 + v)
      val dag = ColorDag.build(adjL, order, colors, outer)
      val bits = ColorDag.buildBits(adjL, order, colors, outer)
      assert(bits.s == dag.s && bits.words == (dag.s + 63) / 64)
      assert(bits.colors.sameElements(dag.colors))
      assert(bits.toOuter.sameElements(dag.toOuter))
      for (p <- 0 until dag.s) {
        assert(bitsOf(bits.outRows(p)) == dag.out(p).toSeq, s"out row $p")
        assert(bitsOf(bits.undRows(p)) == dag.und(p).toSeq, s"und row $p")
      }
    }
  }

  test("positions relabel the graph and every out edge points to a larger position") {
    for (g <- graphs) {
      val adjL = adjLists(g)
      val order = ColorDag.degreeOrder(adjL)
      val dag = ColorDag.build(adjL, order, null, Array.tabulate(g.n)(identity))
      assert(dag.colors == null)
      assert(dag.toOuter.sameElements(order))
      for (p <- 0 until dag.s) {
        assert(dag.out(p).forall(_ > p))
        assert(dag.out(p).toSeq == dag.und(p).filter(_ > p).toSeq)
        for (q <- dag.und(p)) assert(g.hasEdge(dag.toOuter(p), dag.toOuter(q)))
      }
      assert(dag.und.map(_.length).sum == 2 * g.m)
    }
  }

  test("colorOrder colors properly and colors never increase with position") {
    for (g <- graphs) {
      val adjL = adjLists(g)
      val (order, colors) = ColorDag.colorOrder(adjL)
      assert(order.sorted.sameElements(0 until g.n))
      val dag = ColorDag.build(adjL, order, colors, Array.tabulate(g.n)(identity))
      for (p <- 0 until dag.s; q <- dag.und(p)) assert(dag.colors(p) != dag.colors(q), s"edge $p-$q")
      for (p <- 1 until dag.s) assert(dag.colors(p - 1) >= dag.colors(p), s"position $p")
    }
  }

  test("the global EBBkC-C DAG is in color-descending order") {
    for (g <- graphs) {
      val prep = EbbkcPrep.build(g, 4, EbbkcAlgo(ColorOrdering))
      val dag = prep.cdag
      for (p <- 1 until dag.s) assert(dag.colors(p - 1) >= dag.colors(p), s"position $p")
      for (e <- 0 until g.m) {
        val u = prep.cEdgeU(e); val v = prep.cEdgeV(e)
        assert(u < v && dag.out(u).contains(v))
        assert(Set(dag.toOuter(u), dag.toOuter(v)) == Set(g.edgeU(e), g.edgeV(e)))
      }
    }
  }
}
