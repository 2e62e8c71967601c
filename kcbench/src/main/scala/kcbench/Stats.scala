package kcbench

/** Order statistics for the benchmark's timings. */
object Stats {

  /** Median; the mean of the two middle values for an even count. */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Nearest-rank percentile `p` (0 < p <= 100) of ascending `sorted`: the
    * smallest sample with at least p% of the samples at or below it.
    */
  def percentile(sorted: Array[Double], p: Double): Double = {
    require(sorted.nonEmpty, "percentile of no samples")
    require(p > 0 && p <= 100, s"percentile out of range: $p")
    val rank = math.ceil(p / 100.0 * sorted.length).toInt
    sorted(math.min(sorted.length, math.max(1, rank)) - 1)
  }

  /** Percentiles a tail report may quote, highest first. */
  private val Ladder: Seq[Double] = Seq(99.99, 99.9, 99.0, 90.0, 50.0)

  /** The highest percentile of [[Ladder]] that has at least 10 of `n`
    * samples strictly beyond its nearest rank, if any.
    */
  def tailPercentile(n: Int): Option[Double] =
    Ladder.find(p => n - math.ceil(p / 100.0 * n).toLong >= 10)

  /** Share of the summed samples held by the largest `frac` of them. */
  def topShare(sorted: Array[Double], frac: Double): Double = {
    val total = sorted.sum
    if (total <= 0) 0.0
    else {
      val top = math.max(1, math.ceil(frac * sorted.length).toInt)
      sorted.iterator.drop(sorted.length - top).sum / total
    }
  }
}
