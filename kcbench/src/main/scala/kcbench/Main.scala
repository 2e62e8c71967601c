package kcbench

import com.fasterxml.jackson.databind.ObjectMapper
import org.apache.spark.sql.SparkSession

/** Command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
  *
  * Prints one line of run context, then as its last line the result object
  * `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
  * with `--trace 0`, the per-layer metrics with `--trace 1`.
  */
object Main {

  private val json = new ObjectMapper()

  /** JSON cannot hold NaN or infinities; a metric that is not finite is 0. */
  private def finiteOr0(x: Double): Double = if (x.isNaN || x.isInfinite) 0.0 else x

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val w = opts.get("workload").flatMap(Workloads.byName).getOrElse {
      System.err.println(s"usage: --workload <${Workloads.all.map(_.name).mkString("|")}> " +
        "[--seed n] [--seconds s] [--trace 0|1]")
      sys.exit(2)
    }
    val seed = opts.get("seed").fold(Relabel.DefaultSeed)(_.toLong)
    val budgetS = opts.get("seconds").fold(10.0)(_.toDouble)
    val trace = opts.get("trace").contains("1")
    val nproc = Runtime.getRuntime.availableProcessors

    val sessionStart = System.nanoTime()
    val spark = if (w.spark) Some(startSpark(nproc)) else None
    val sessionS = (System.nanoTime() - sessionStart) / 1e9
    val result =
      try {
        val runner = new Runner(w, seed, spark)
        if (trace) runner.traced(budgetS) else runner.untraced(budgetS)
      } finally spark.foreach(_.stop())

    val info = json.createObjectNode()
      .put("workload", w.name)
      .put("seed", seed)
      .put("default_seed", Relabel.DefaultSeed)
      .put("held_out_seed", Relabel.HeldOutSeed)
      .put("trace", trace)
      .put("reference_count", w.count)
      .put("git_sha", sys.props.getOrElse("kcbench.gitSha", "unknown"))
      .put("nproc", nproc)
      .put("jvm", s"${sys.props("java.vm.name")} ${sys.props("java.runtime.version")}")
      .put("spark_session_s", sessionS)
      .put("error_rate", if (result.attempted == 0) 0.0 else result.failed.toDouble / result.attempted)
    val samples = info.putObject("samples")
    // Highest percentile with at least 10 samples beyond it; null when a run
    // has too few samples for any tail.
    val tails = info.putObject("tail_percentile")
    for ((n, xs) <- result.samples) {
      samples.put(n, xs.length)
      Stats.tailPercentile(xs.length) match {
        case Some(p) => tails.putObject(n).put("p", p).put("value", Stats.percentile(xs.sorted.toArray, p))
        case None => tails.putNull(n)
      }
    }
    println(json.writeValueAsString(json.createObjectNode().set("info", info)))
    val line = json.createObjectNode()
      .put("correct", result.correct)
      .put("attempted", result.attempted)
      .put("failed", result.failed)
    val metrics = line.putObject("metrics")
    for ((n, m) <- result.metrics)
      metrics.putObject(n).put("value", finiteOr0(m.value)).put("unit", m.unit)
    println(json.writeValueAsString(line))
    sys.exit(0)
  }

  /** A local session with `nproc` cores, spilling under java.io.tmpdir. */
  def startSpark(nproc: Int): SparkSession = {
    val tmp = sys.props("java.io.tmpdir")
    val s = SparkSession.builder()
      .master(s"local[$nproc]")
      .appName("kcbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", tmp)
      .config("spark.sql.warehouse.dir", s"$tmp/warehouse")
      .config("spark.sql.shuffle.partitions", nproc.toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }
}
