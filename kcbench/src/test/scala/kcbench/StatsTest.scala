package kcbench

import org.scalatest.funsuite.AnyFunSuite

class StatsTest extends AnyFunSuite {

  test("median of odd and even counts") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
    assert(Stats.median(Seq(7.0)) == 7.0)
  }

  test("nearest-rank percentile") {
    val xs = (1 to 10).map(_.toDouble).toArray
    assert(Stats.percentile(xs, 50) == 5.0)
    assert(Stats.percentile(xs, 90) == 9.0)
    assert(Stats.percentile(xs, 91) == 10.0)
    assert(Stats.percentile(xs, 100) == 10.0)
    assert(Stats.percentile(xs, 0.01) == 1.0)
    assert(Stats.percentile(Array(4.0), 99) == 4.0)
    val hundred = (1 to 100).map(_.toDouble).toArray
    assert(Stats.percentile(hundred, 99) == 99.0)
    assert(Stats.percentile(hundred, 99.9) == 100.0)
    intercept[IllegalArgumentException](Stats.percentile(xs, 0))
    intercept[IllegalArgumentException](Stats.percentile(Array.empty[Double], 50))
  }

  test("tail percentile keeps at least ten samples beyond it") {
    assert(Stats.tailPercentile(3).isEmpty)
    assert(Stats.tailPercentile(19).isEmpty)
    assert(Stats.tailPercentile(20).contains(50.0))
    assert(Stats.tailPercentile(100).contains(90.0))
    assert(Stats.tailPercentile(999).contains(90.0))
    assert(Stats.tailPercentile(1000).contains(99.0))
    assert(Stats.tailPercentile(301024).contains(99.99))
    for (n <- Seq(20, 57, 100, 1000, 12345, 301024); p <- Stats.tailPercentile(n))
      assert(n - math.ceil(p / 100 * n) >= 10, s"n=$n p=$p")
  }

  test("top share") {
    val xs = Array.fill(99)(1.0) :+ 101.0
    assert(math.abs(Stats.topShare(xs, 0.01) - 0.505) < 1e-12)
    assert(Stats.topShare(Array(0.0, 0.0), 0.5) == 0.0)
  }
}
