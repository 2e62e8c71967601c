package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, Encoder, SparkSession}
import repro.graph.{GraphDF, LocalGraph}

/** Distributed k-clique listing: subgraph-centric execution on Spark.
  *
  * The prepared graph (CSR + orderings) is broadcast; the unit of
  * distribution is a top-level subproblem of the chosen framework — one edge
  * of G for EBBkC and the EP scheme of VBBkC, one vertex for NP (exactly the
  * parallel schemes compared in Section 6(7)). Nothing is shuffled: the
  * edge table is collected as a narrow projection and canonicalized on the
  * driver ([[GraphDF.toLocal]]), and the subproblem ids are dealt by stride
  * over a `spark.range` of slot ids. The deep branch-and-bound recursion
  * runs inside `mapPartitions` where dataflow joins would be hopeless.
  */
object KCliqueSpark {

  def defaultPartitions(spark: SparkSession): Int =
    spark.sparkContext.defaultParallelism * 4

  /** Counts k-cliques of a (src, dst) edge table, canonical or not (see
    * [[GraphDF.toLocal]]), with the given algorithm.
    */
  def count(spark: SparkSession, edges: DataFrame, k: Int, cfg: AlgoConfig, partitions: Int = 0): Long = {
    val localized = GraphDF.toLocal(edges)
    countLocal(spark, localized.graph, k, cfg, partitions)
  }

  /** Counts k-cliques of an in-core graph by fanning subproblems out; a
    * total past Long.MaxValue throws instead of wrapping.
    */
  def countLocal(spark: SparkSession, g: LocalGraph, k: Int, cfg: AlgoConfig, partitions: Int = 0): Long = {
    import spark.implicits._
    val totals = fanOut(spark, KClique.prepare(g, k, cfg), partitions) { (kernel, it) =>
      val sink = new CountingSink
      it.foreach(kernel.run(_, sink))
      Iterator.single(sink.total)
    }
    totals.fold(0L)(_.reduce((a: Long, b: Long) => Math.addExact(a, b)))
  }

  /** Lists k-cliques as a DataFrame with columns v1 < v2 < ... < vk, mapped
    * back to the edge table's original vertex ids.
    */
  def list(spark: SparkSession, edges: DataFrame, k: Int, cfg: AlgoConfig, partitions: Int = 0): DataFrame = {
    val localized = GraphDF.toLocal(edges)
    val bcIds = spark.sparkContext.broadcast(localized.origIds)
    import spark.implicits._
    val rows = fanOut(spark, KClique.prepare(localized.graph, k, cfg), partitions) { (kernel, it) =>
      val ids = bcIds.value
      // One subproblem's cliques at a time, not the whole partition's.
      var buf = scala.collection.mutable.ArrayBuffer.empty[Seq[Long]]
      val sink = new CliqueSink {
        override def wantsCliques: Boolean = true
        override def onClique(stack: Array[Int], len: Int): Unit = {
          val c = new Array[Long](len)
          var i = 0
          while (i < len) { c(i) = ids(stack(i)); i += 1 }
          java.util.Arrays.sort(c)
          buf += c.toSeq
        }
        override def onCount(c: Long): Unit =
          throw new IllegalStateException("listing run must materialize cliques")
      }
      it.flatMap { id =>
        buf = scala.collection.mutable.ArrayBuffer.empty[Seq[Long]]
        kernel.run(id, sink)
        buf
      }
    }
    rows.getOrElse(spark.emptyDataset[Seq[Long]])
      .toDF("clique").selectExpr((1 to k).map(i => s"clique[${i - 1}] as v$i"): _*)
  }

  /** The one fan-out: broadcasts `prep` and deals its subproblem ids by
    * stride over `slots` = min(`partitions`, n) partitions (default
    * [[defaultPartitions]]): partition s runs ids s, s + slots, s + 2·slots,
    * … through `body` with its own kernel. No shuffle. None when there is no
    * subproblem.
    */
  private def fanOut[T: Encoder](spark: SparkSession, prep: Prep, partitions: Int)(
      body: (SubproblemKernel, Iterator[Int]) => Iterator[T]): Option[Dataset[T]] = {
    val n = prep.numSubproblems
    if (n == 0) return None
    val slots = math.min(if (partitions > 0) partitions else defaultPartitions(spark), n)
    val bc = spark.sparkContext.broadcast(prep)
    Some(spark.range(0, slots, 1, slots).mapPartitions((it: Iterator[java.lang.Long]) =>
      body(bc.value.newKernel(), it.flatMap(s => Iterator.range(s.intValue, n, slots)))))
  }
}
