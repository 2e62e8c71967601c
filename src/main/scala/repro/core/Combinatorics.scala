package repro.core

/** Binomial coefficients and combination enumeration for the combinatorial
  * early-termination paths (Section 5). Counting-mode kernels replace full
  * enumeration with closed-form binomials, which is where the big near-omega
  * speedups of EBBkC+ET come from.
  */
object Combinatorics {

  /** C(n, k), exact; 0 outside range.
    *
    * @throws ArithmeticException if C(n, k) exceeds Long.MaxValue
    */
  def binomial(n: Int, k: Int): Long = {
    if (k < 0 || k > n) return 0L
    val kk = math.min(k, n - k)
    var acc = 1L
    var i = 1
    while (i <= kk) {
      // acc = acc * num / i. The quotient is an integer, so i / gcd(acc, i)
      // divides num; dividing first keeps the product from overflowing
      // before the result does (C(n - kk + i, i) only grows with i).
      val num = n - kk + i
      val g = gcd(acc, i)
      acc = Math.multiplyExact(acc / g, num / (i / g))
      i += 1
    }
    acc
  }

  private def gcd(a0: Long, b0: Long): Long = {
    var a = a0; var b = b0
    while (b != 0) { val t = a % b; a = b; b = t }
    a
  }

  /** Invokes `f(buf, k)` once per k-combination of `items(0 until len)`;
    * `buf(0 until k)` holds the chosen items and must not be retained.
    */
  def forEachCombination(items: Array[Int], len: Int, k: Int)(f: (Array[Int], Int) => Unit): Unit = {
    if (k < 0 || k > len) return
    if (k == 0) { f(Array.emptyIntArray, 0); return }
    val buf = new Array[Int](k)
    def rec(start: Int, depth: Int): Unit = {
      if (depth == k) { f(buf, k); return }
      var i = start
      // Leave enough items for the remaining slots.
      while (i <= len - (k - depth)) {
        buf(depth) = items(i)
        rec(i + 1, depth + 1)
        i += 1
      }
    }
    rec(0, 0)
  }
}
