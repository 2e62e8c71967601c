package kcbench

/** The workload seed: a seeded vertex permutation applied through
  * `LocalGraph.relabel`. Relabelling is a graph isomorphism, so every clique
  * count, and the listing hash taken over the generator's own ids, is the
  * same for every seed; only tie-breaking inside the orderings can differ.
  */
object Relabel {

  /** The seed used when none is given. */
  val DefaultSeed: Long = 1L

  /** Reserved for checking performance claims; not used while tuning. */
  val HeldOutSeed: Long = 9001L

  /** A uniformly random permutation of `0 until n` (Fisher-Yates). */
  def permutation(n: Int, seed: Long): Array[Int] = {
    val p = Array.tabulate(n)(identity)
    val rnd = new java.util.SplittableRandom(seed)
    var i = n - 1
    while (i > 0) {
      val j = rnd.nextInt(i + 1)
      val t = p(i); p(i) = p(j); p(j) = t
      i -= 1
    }
    p
  }

  def inverse(p: Array[Int]): Array[Int] = {
    val inv = new Array[Int](p.length)
    var i = 0
    while (i < p.length) { inv(p(i)) = i; i += 1 }
    inv
  }
}
