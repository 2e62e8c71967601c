package repro.core

import repro.graph.LocalGraph
import repro.order.TrussDecomposition

/** Deliberately naive k-clique reference used as the test oracle for the
  * kernels: adjacency-matrix backtracking in ascending id order, structured
  * nothing like the branch-and-bound implementations under test.
  */
object BruteForce {

  def list(g: LocalGraph, k: Int): Set[Seq[Int]] = {
    val adj = Array.fill(g.n)(new java.util.BitSet(g.n))
    for ((u, v) <- g.edges) { adj(u).set(v); adj(v).set(u) }
    val out = scala.collection.mutable.Set.empty[Seq[Int]]
    val chosen = new Array[Int](k)
    def rec(start: Int, depth: Int): Unit = {
      if (depth == k) { out += chosen.toSeq; return }
      var v = start
      while (v < g.n) {
        var ok = true
        var i = 0
        while (i < depth && ok) { if (!adj(chosen(i)).get(v)) ok = false; i += 1 }
        if (ok) { chosen(depth) = v; rec(v + 1, depth + 1) }
        v += 1
      }
    }
    rec(0, 0)
    out.toSet
  }

  def count(g: LocalGraph, k: Int): Long = list(g, k).size.toLong
}

/** The triangle count from the truss supports: every triangle is counted
  * once at each of its three edges.
  */
object Triangles {
  def count(g: LocalGraph): Long = TrussDecomposition.supports(g).map(_.toLong).sum / 3
}
