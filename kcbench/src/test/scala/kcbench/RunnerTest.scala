package kcbench

import com.fasterxml.jackson.databind.ObjectMapper
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.core.Algos
import scala.jdk.CollectionConverters._

class RunnerTest extends AnyFunSuite with BeforeAndAfterAll {
  import SinksTest._

  private lazy val spark: SparkSession = Main.startSpark(2)
  override def afterAll(): Unit = spark.stop()

  private val k4Hash = ListHash.of(bruteForce(twoK5, 4))

  /** One tiny workload per baseline, listing and Spark, on the two fixtures. */
  private val tiny: Vector[Workload] = Vector(
    Workload("k6-bitcol", () => k6, 4, binom(6, 4), Algos.BitCol),
    Workload("k6-vbbkc-et", () => k6, 5, binom(6, 5), Algos.VBBkCET),
    Workload("2k5-list", () => twoK5, 4, 2 * binom(5, 4), Algos.BitCol, listingHash = Some(k4Hash)),
    Workload("2k5-spark", () => twoK5, 3, 2 * binom(5, 3), Algos.VBBkCET, spark = true)
  )

  /** (name, unit) of each metric of one section of BENCHMARK.json, in order. */
  private def declared(section: String): Vector[(String, String)] = {
    val root = new ObjectMapper().readTree(new java.io.File("../BENCHMARK.json"))
    root.get(section).elements().asScala.map(m => m.get("name").asText -> m.get("unit").asText).toVector
  }

  /** A runner without warm-up, so the smoke runs stay short. */
  private def runner(w: Workload, seed: Long): Runner =
    new Runner(w, seed, if (w.spark) Some(spark) else None, _ => (), warmUpS = 0)

  for (w <- tiny) {
    test(s"untraced smoke run: ${w.name}") {
      val r = runner(w, 5).untraced(0)
      assert(r.correct && r.failed == 0)
      assert(r.attempted >= 2 + 2 * Runner.MinSamples)
      assert(r.metrics.map { case (n, m) => n -> m.unit } == declared("end_to_end"))
      assert(r.metrics.forall(_._2.value > 0), r.metrics)
    }

    test(s"traced smoke run: ${w.name}") {
      val r = runner(w, 5).traced(0)
      assert(r.correct, r.metrics)
      assert(r.metrics.map { case (n, m) => n -> m.unit }.sorted == declared("per_layer").sorted)
      val m = r.metrics.toMap
      assert(m("core.sink.counted_cliques").value + m("core.sink.clique_calls").value == w.count)
      assert((m("spark.tasks").value > 0) == w.spark)
      assert((m("core.sink.list_mcps").value > 0) == w.listingHash.isDefined)
      assert(m("error_rate").value == 0)
    }
  }

  test("a wrong reference fails every checked operation instead of being skipped") {
    val wrong = tiny(0).copy(count = binom(6, 4) + 1)
    val r = runner(wrong, 1).untraced(0)
    assert(!r.correct)
    assert(r.failed == r.attempted)
    val listing = tiny(2).copy(listingHash = Some(k4Hash + 1))
    val l = runner(listing, 1).traced(0)
    assert(l.failed == 1 && l.attempted > 1) // the listing fails, the counts pass
    val t = runner(wrong, 1).traced(0)
    assert(!t.correct && t.metrics.toMap.apply("error_rate").value == 1.0)
  }

  test("the workloads are the declared ones") {
    val names = new ObjectMapper().readTree(new java.io.File("../BENCHMARK.json"))
      .get("workloads").elements().asScala.map(_.get("name").asText).toVector
    assert(Workloads.all.map(_.name) == names)
  }
}
