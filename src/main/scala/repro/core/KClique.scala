package repro.core

import repro.graph.LocalGraph

/** Serial entry points for k-clique listing/counting on an in-core graph.
  *
  * Reported times in the benches wrap these calls end-to-end, so — like the
  * paper's measurements — they include preprocessing and ordering generation.
  */
object KClique {

  def prepare(g: LocalGraph, k: Int, cfg: AlgoConfig): Prep = cfg match {
    case e: EbbkcAlgo => EbbkcPrep.build(g, k, e)
    case v: VbbkcAlgo => VbbkcPrep.build(g, k, v)
  }

  /** Number of k-cliques in `g`, via a single-threaded run of `cfg`. */
  def count(g: LocalGraph, k: Int, cfg: AlgoConfig): Long = runAll(g, k, cfg, new CountingSink).total

  /** All k-cliques of `g` as sorted vertex arrays. */
  def list(g: LocalGraph, k: Int, cfg: AlgoConfig): IndexedSeq[Array[Int]] =
    runAll(g, k, cfg, new CollectingSink).cliques.toIndexedSeq

  /** Runs every subproblem of `cfg` on `g` into `sink`, in id order. */
  private def runAll[S <: CliqueSink](g: LocalGraph, k: Int, cfg: AlgoConfig, sink: S): S = {
    val prep = prepare(g, k, cfg)
    val kernel = prep.newKernel()
    var id = 0
    val n = prep.numSubproblems
    while (id < n) { kernel.run(id, sink); id += 1 }
    sink
  }
}
