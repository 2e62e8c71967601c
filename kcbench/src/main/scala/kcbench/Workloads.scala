package kcbench

import repro.core.{Algos, VbbkcAlgo}
import repro.graph.{LocalGraph, SynthGraphs}

/** One benchmark workload: a graph, a clique size, the pinned exact count,
  * and the vertex-oriented baseline counted beside EBBkC+ET (`contrast_s`).
  * Where `listingHash` is given, the traced run also lists every clique
  * through [[ListHashSink]] and checks the listing against it. With `spark`
  * both counts are `KCliqueSpark.count` over the canonical edge DataFrame
  * with [[Workloads.SparkPartitions]] fan-out tasks; otherwise they are
  * serial `KClique.count` calls.
  */
final case class Workload(
    name: String,
    graph: () => LocalGraph,
    k: Int,
    count: Long,
    baseline: VbbkcAlgo,
    listingHash: Option[Long] = None,
    spark: Boolean = false
)

/** The two workloads. The counts were taken once with EBBkC+ET and agree
  * with each workload's baseline; the listing hash was taken once with
  * EBBkC+ET. Neither depends on the seed.
  */
object Workloads {

  /** Fan-out width of the Spark workload, fixed so task skew is comparable across machines. */
  val SparkPartitions = 16

  val all: Vector[Workload] = Vector(
    // Small omega, work in the inner recursion: kernel and hot-path changes.
    // Its traced run also lists all 98.6M cliques, the listing layer.
    Workload("wk-k8-count", () => SynthGraphs("WK"), 8, 98568307L, Algos.BitCol,
      listingHash = Some(5786431974340229102L)),
    // The Spark fan-out: toLocal, broadcast, scheduling and task skew,
    // against the vertex-oriented fan-out of the paper's Fig. 10.
    Workload("po-k10-spark", () => SynthGraphs("PO"), 10, 45362534L, Algos.VBBkCET, spark = true)
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
