package kcbench

import java.lang.management.ManagementFactory
import org.apache.spark.KcbenchListenerBus
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.graph.{GraphDF, LocalGraph}
import repro.order.{Coloring, CoreDecomposition, TrussDecomposition}
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

final case class Metric(value: Double, unit: String)

/** What one run reports: the correctness tally, the metrics in print order,
  * and the timing samples behind each median.
  */
final case class RunResult(
    attempted: Long,
    failed: Long,
    metrics: Vector[(String, Metric)],
    samples: Vector[(String, Vector[Double])]
) {
  def correct: Boolean = failed == 0
}

/** The workload's graph under one seed. `edges` is its canonical edge
  * DataFrame when the run uses Spark.
  */
final case class Setup(g: LocalGraph, toCanonical: Array[Int], edges: Option[DataFrame])

/** Runs one workload as a closed loop: a single caller that starts each
  * operation only after the previous one returned. Serial operations run on
  * the calling thread; Spark operations on the given local session. Every
  * operation's result is checked against the workload's pinned reference.
  */
final class Runner(
    w: Workload,
    seed: Long,
    spark: Option[SparkSession],
    log: String => Unit = Console.err.println,
    warmUpS: Double = Runner.WarmUpS
) {
  import Runner._

  private val algo = Algos.EBBkCET
  private var attempted = 0L
  private var failed = 0L

  /** Runs and checks `op`; its result and wall seconds, or None if it threw
    * or returned a wrong result. Either way the attempt is tallied.
    */
  private def attempt[A](what: String)(op: => A)(ok: A => Boolean): Option[(A, Double)] = {
    attempted += 1
    val t0 = System.nanoTime()
    try {
      val r = op
      val s = seconds(t0)
      if (ok(r)) Some((r, s))
      else { failed += 1; log(s"[kcbench] ${w.name} $what: wrong result $r"); None }
    } catch {
      case NonFatal(e) => failed += 1; log(s"[kcbench] ${w.name} $what threw $e"); None
    }
  }

  private def session: SparkSession =
    spark.getOrElse(throw new IllegalStateException(s"${w.name} needs a Spark session"))

  // ---- set-up ----------------------------------------------------------

  /** Generation and seeded relabel, then on the Spark workload the edge
    * DataFrame and its first `GraphDF.toLocal`. Returns the set-up and the
    * seconds spent before and in toLocal.
    */
  private def setupOnce(): (Setup, Double, Double) = {
    val t0 = System.nanoTime()
    val base = w.graph()
    val perm = Relabel.permutation(base.n, seed)
    val g = base.relabel(perm)
    val buildS = seconds(t0)
    val t1 = System.nanoTime()
    val edges = if (w.spark) Some(GraphDF.fromLocal(session, g)) else None
    edges.foreach(GraphDF.toLocal)
    (Setup(g, Relabel.inverse(perm), edges), buildS, seconds(t1))
  }

  /** Sets up at least [[MinSetups]] times and until [[SetupBudgetS]] have
    * passed; the last set-up and the build and total seconds of each.
    */
  private def setups(): (Setup, Vector[Double], Vector[Double]) = {
    val build = ArrayBuffer.empty[Double]
    val total = ArrayBuffer.empty[Double]
    var last: Setup = null
    val t0 = System.nanoTime()
    while (build.length < MinSetups || (seconds(t0) < SetupBudgetS && build.length < MaxSetups)) {
      val (s, b, l) = setupOnce()
      last = s; build += b; total += b + l
    }
    (last, build.toVector, total.toVector)
  }

  // ---- the timed operations --------------------------------------------

  private def serialCount(s: Setup, cfg: AlgoConfig): Option[Double] =
    attempt(s"${cfg.name} count")(KClique.count(s.g, w.k, cfg))(_ == w.count).map(_._2)

  private def sparkCount(edges: DataFrame, cfg: AlgoConfig): Option[Double] =
    attempt(s"${cfg.name} Spark count")(
      KCliqueSpark.count(session, edges, w.k, cfg, Workloads.SparkPartitions))(_ == w.count).map(_._2)

  private def countIn(s: Setup, cfg: AlgoConfig): Option[Double] =
    if (w.spark) sparkCount(s.edges.get, cfg) else serialCount(s, cfg)

  /** `count_s`: one exact EBBkC+ET count, prep included. */
  private def countOp(s: Setup): Option[Double] = countIn(s, algo)

  /** `contrast_s`: the same count by the workload's baseline. */
  private def contrastOp(s: Setup): Option[Double] = countIn(s, w.baseline)

  // ---- untraced run: the end-to-end metrics ----------------------------

  /** Runs `op` for at least `warmUpS`, so JIT compilation and lazy
    * initialisation stay out of the timings.
    */
  private def warmUp(op: => Any): Unit = {
    val t0 = System.nanoTime()
    op
    while (seconds(t0) < warmUpS) op
  }

  /** Warms `op` up, then times it in a phase of its own: at least
    * [[MinSamples]] times, and another time only if one as long as the
    * last still fits in `budgetS`. The seconds of each correct call.
    */
  private def phase(budgetS: Double)(op: => Option[Double]): Vector[Double] = {
    warmUp(op)
    val samples = ArrayBuffer.empty[Double]
    val t0 = System.nanoTime()
    var calls = 0
    var lastS = 0.0
    while (calls < MinSamples || seconds(t0) + lastS <= budgetS) {
      val c0 = System.nanoTime()
      op.foreach(samples += _)
      lastS = seconds(c0)
      calls += 1
    }
    samples.toVector
  }

  def untraced(budgetS: Double): RunResult = {
    val (s, _, setupTotal) = setups()
    val prepMb = KClique.prepare(s.g, w.k, algo).approxBytes / 1e6
    val counts = phase(budgetS / 2)(countOp(s))
    val contrasts = phase(budgetS / 2)(contrastOp(s))
    RunResult(attempted, failed,
      Vector(
        "count_s" -> Metric(medianOr0(counts), "s"),
        "contrast_s" -> Metric(medianOr0(contrasts), "s"),
        "setup_s" -> Metric(Stats.median(setupTotal), "s"),
        "prep_mb" -> Metric(prepMb, "MB")
      ),
      Vector("count_s" -> counts, "contrast_s" -> contrasts, "setup_s" -> setupTotal))
  }

  // ---- traced run: the per-layer metrics -------------------------------

  /** prepare + newKernel + every `SubproblemKernel.run`, each run timed; a
    * subproblem is productive when `emitted` grew during it.
    */
  private def kernelPass(s: Setup, cfg: AlgoConfig, sink: CliqueSink, emitted: () => Long): KernelPass = {
    val t0 = System.nanoTime()
    val prep = KClique.prepare(s.g, w.k, cfg)
    val prepS = seconds(t0)
    val kernel = prep.newKernel()
    val n = prep.numSubproblems
    val subNs = new Array[Double](n)
    var productive = 0
    var id = 0
    while (id < n) {
      val before = emitted()
      val t1 = System.nanoTime()
      kernel.run(id, sink)
      subNs(id) = (System.nanoTime() - t1).toDouble
      if (emitted() != before) productive += 1
      id += 1
    }
    KernelPass(prepS, seconds(t0), subNs, productive)
  }

  private def timeS[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime(); val r = body; (r, seconds(t0))
  }

  private def check(what: String, ok: Boolean): Unit = {
    attempted += 1
    if (!ok) { failed += 1; log(s"[kcbench] ${w.name} traced $what: wrong result") }
  }

  /** One traced pass over every layer; metric name -> value. */
  private def tracedPass(s: Setup): Vector[(String, Double)] = {
    val out = ArrayBuffer.empty[(String, Double)]
    val g = s.g

    // order: the ordering substrates, called directly.
    val (truss, trussS) = timeS(TrussDecomposition.run(g))
    out += "order.truss_s" -> trussS
    out += "order.supports_s" -> timeS(TrussDecomposition.supports(g))._2
    out += "order.core_s" -> timeS(CoreDecomposition.run(g))._2
    out += "order.color_s" -> timeS(Coloring.inverseDegeneracy(g))._2
    out += "order.tau" -> truss.tau.toDouble

    // core: EBBkC+ET with every subproblem timed, beside an untraced count.
    val refCount = serialCount(s, algo)
    val gcBefore = gcSeconds()
    val alloc0 = threadAllocatedBytes()
    val tally = new TallySink
    val core = kernelPass(s, algo, tally, () => tally.total)
    val allocMb = (threadAllocatedBytes() - alloc0) / 1e6
    check("EBBkC+ET count", tally.total == w.count)
    val prep = KClique.prepare(g, w.k, algo)
    val newKernelUs = Stats.median((1 to 5).map(_ => timeS(prep.newKernel())._2 * 1e6))
    val sub = core.subNs.sorted
    out += "core.prep_s" -> core.prepS
    out += "core.new_kernel_us" -> newKernelUs
    out += "core.kernel_s" -> core.subNs.sum / 1e9
    out += "core.subproblems" -> sub.length.toDouble
    out += "core.productive" -> core.productive.toDouble
    out += "core.productive_frac" -> (if (sub.isEmpty) 0.0 else core.productive.toDouble / sub.length)
    out += "core.sub_p50_us" -> pct(sub, 50) / 1e3
    out += "core.sub_p99_us" -> pct(sub, 99) / 1e3
    out += "core.sub_max_ms" -> (if (sub.isEmpty) 0.0 else sub.last / 1e6)
    out += "core.top1pct_time_share" -> Stats.topShare(sub, 0.01)
    out += "core.sink.count_calls" -> tally.countCalls.toDouble
    out += "core.sink.counted_cliques" -> tally.counted.toDouble
    out += "core.sink.clique_calls" -> tally.cliqueCalls.toDouble
    out += "core.sink.arith_share" -> (if (tally.total == 0) 0.0 else tally.counted.toDouble / tally.total)
    out += "jvm.alloc_mb" -> allocMb
    out += "trace.count_overhead" -> refCount.fold(0.0)(r => core.wallS / r - 1)

    // baseline: the vertex-oriented counterpart.
    val btally = new TallySink
    val base = kernelPass(s, w.baseline, btally, () => btally.total)
    check(s"${w.baseline.name} count", btally.total == w.count)
    out += "baseline.prep_s" -> base.prepS
    out += "baseline.kernel_s" -> base.subNs.sum / 1e9
    out += "baseline.productive" -> base.productive.toDouble

    // listing, on the workload whose listing is pinned.
    val listMcps = w.listingHash.fold(0.0) { hash =>
      val sink = new ListHashSink(s.toCanonical)
      val pass = kernelPass(s, algo, sink, () => sink.listed)
      check("listing", sink.listed == w.count && sink.hash == hash)
      sink.listed / pass.wallS / 1e6
    }
    out += "core.sink.list_mcps" -> listMcps
    out += "jvm.gc_s" -> (gcSeconds() - gcBefore)

    // spark: on the Spark workload only; elsewhere these layers do not run.
    val sparkLayers = s.edges.fold(Map.empty[String, Double])(sparkPass)
    out ++= SparkMetrics.map(n => n -> sparkLayers.getOrElse(n, 0.0))
    out.toVector
  }

  /** An untraced `KCliqueSpark.count`, then the same work traced: toLocal,
    * and the fan-out with a [[SparkTaskLog]] attached; metric name -> value.
    */
  private def sparkPass(edges: DataFrame): Map[String, Double] = {
    val sc = session.sparkContext
    val untracedS = sparkCount(edges, algo)
    val tasks = new SparkTaskLog
    KcbenchListenerBus.drain(sc)
    sc.addSparkListener(tasks)
    try {
      val t0 = System.nanoTime()
      val (localized, toLocalS) = timeS(GraphDF.toLocal(edges))
      val (fanOutCount, countLocalS) =
        timeS(KCliqueSpark.countLocal(session, localized.graph, w.k, algo, Workloads.SparkPartitions))
      // The listener runs on Spark's bus thread; its cost shows as the wait
      // for the bus to deliver every event of the count.
      KcbenchListenerBus.drain(sc)
      val tracedS = seconds(t0)
      check("Spark count", fanOutCount == w.count)
      val (ts, stages) = tasks.snapshot
      val fanOut = if (stages.isEmpty) None else Some(stages.maxBy(_.id))
      val fanTasks = fanOut.fold(Vector.empty[SparkTaskLog.Task])(f => ts.filter(_.stageId == f.id))
      val durations = fanTasks.map(_.durationS).sorted.toArray
      val stageS = fanOut.fold(0.0)(_.wallS)
      val p50 = pct(durations, 50)
      Map(
        "graph.to_local_s" -> toLocalS,
        "spark.tasks" -> fanTasks.length.toDouble,
        "spark.task_p50_s" -> p50,
        "spark.task_max_s" -> (if (durations.isEmpty) 0.0 else durations.last),
        "spark.task_skew" -> (if (p50 > 0) durations.last / p50 else 0.0),
        "spark.busy_frac" ->
          (if (stageS > 0) fanTasks.map(_.runS).sum / (sc.defaultParallelism * stageS) else 0.0),
        "spark.stage_s" -> stageS,
        "spark.deserialize_s" -> fanTasks.map(_.deserializeS).sum,
        "spark.gc_s" -> fanTasks.map(_.gcS).sum,
        "spark.shuffle_write_bytes" -> ts.map(_.shuffleWriteBytes).sum.toDouble,
        "spark.driver_s" -> (countLocalS - stages.map(_.wallS).sum),
        "trace.spark_overhead" -> untracedS.fold(0.0)(u => tracedS / u - 1)
      )
    } finally sc.removeSparkListener(tasks)
  }

  def traced(budgetS: Double): RunResult = {
    val (s, setupBuild, _) = setups()
    warmUp(countOp(s))
    warmUp(contrastOp(s))
    // On the Spark workload the traced pass also runs the serial kernel.
    if (w.spark) warmUp(serialCount(s, algo))
    val passes = ArrayBuffer.empty[Vector[(String, Double)]]
    val t0 = System.nanoTime()
    var passS = 0.0
    while (passes.isEmpty || seconds(t0) + passS <= budgetS) {
      val p0 = System.nanoTime()
      passes += tracedPass(s)
      passS = seconds(p0)
    }
    val perPass = passes.head.map { case (name, _) => name -> passes.map(_.find(_._1 == name).get._2).toVector }
    val errorRate = if (attempted == 0) 0.0 else failed.toDouble / attempted
    RunResult(attempted, failed,
      (("graph.build_s" -> Metric(Stats.median(setupBuild), "s")) +:
        perPass.map { case (name, xs) => name -> Metric(Stats.median(xs), unitOf(name)) }) :+
        ("error_rate" -> Metric(errorRate, "ratio")),
      ("graph.build_s" -> setupBuild) +: perPass)
  }
}

object Runner {

  /** Per-subproblem timing of one kernel pass. */
  final case class KernelPass(prepS: Double, wallS: Double, subNs: Array[Double], productive: Int)

  val MinSetups = 5
  val MaxSetups = 50
  val SetupBudgetS = 1.5
  /** Warm-up before each timed phase. A short count reaches its steady
    * speed only after about 2 s of repeated calls.
    */
  val WarmUpS = 3.0
  /** Timed calls of each operation even when the budget is shorter. */
  val MinSamples = 4

  /** The Spark layers' metrics, reported as 0 on serial workloads. */
  val SparkMetrics: Vector[String] = Vector(
    "graph.to_local_s", "spark.tasks", "spark.task_p50_s", "spark.task_max_s", "spark.task_skew",
    "spark.busy_frac", "spark.stage_s", "spark.deserialize_s", "spark.gc_s", "spark.shuffle_write_bytes",
    "spark.driver_s", "trace.spark_overhead")

  private def seconds(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private def medianOr0(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else Stats.median(xs)

  private def pct(sorted: Array[Double], p: Double): Double =
    if (sorted.isEmpty) 0.0 else Stats.percentile(sorted, p)

  private def gcSeconds(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum / 1e3

  private def threadAllocatedBytes(): Long =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean].getCurrentThreadAllocatedBytes

  /** Unit of a per-layer metric, from its name. */
  def unitOf(name: String): String =
    if (name.endsWith("_us")) "us"
    else if (name.endsWith("_ms")) "ms"
    else if (name.endsWith("_s")) "s"
    else if (name.endsWith("_mb")) "MB"
    else if (name.endsWith("_bytes")) "bytes"
    else if (name.endsWith("_mcps")) "Mcliques/s"
    else if (name.endsWith("_frac") || name.endsWith("_share") || name.endsWith("_skew") ||
             name.endsWith("_overhead") || name.endsWith("_rate")) "ratio"
    else "count"
}
