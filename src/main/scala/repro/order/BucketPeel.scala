package repro.order

/** The bucket queue of Batagelj & Zaversnik (2003), shared by the core and
  * truss peels: `order` holds the items 0 until `key.length` counting-sorted
  * by their non-negative keys (ties by item ascending), and `pos` is its
  * inverse. A peel visits `order(0)`, `order(1)`, … and lowers the keys of
  * items past the visited prefix with [[decrement]]. No swap reaches a
  * visited position, so at the end `order` is the peel sequence and `pos`
  * each item's peel position.
  */
private[order] final class BucketPeel(key: Array[Int]) {
  val order = new Array[Int](key.length)
  val pos = new Array[Int](key.length)
  // bin(d): the first position of the bucket of key d.
  private val bin = {
    var max = 0; var x = 0
    while (x < key.length) { max = math.max(max, key(x)); x += 1 }
    new Array[Int](max + 1)
  }

  {
    var x = 0
    while (x < key.length) { bin(key(x)) += 1; x += 1 }
    var start = 0; var d = 0
    while (d < bin.length) { val c = bin(d); bin(d) = start; start += c; d += 1 }
    val next = bin.clone()
    x = 0
    while (x < key.length) { val p = next(key(x)); pos(x) = p; order(p) = x; next(key(x)) = p + 1; x += 1 }
  }

  /** Moves item x one bucket down: swaps it with the first item of its
    * bucket and lowers `key(x)` by one, in place. x must lie past the
    * visited positions, and its key above that of every visited item.
    */
  def decrement(x: Int): Unit = {
    val d = key(x); val first = bin(d); val y = order(first)
    order(pos(x)) = y; pos(y) = pos(x)
    order(first) = x; pos(x) = first
    bin(d) = first + 1
    key(x) = d - 1
  }
}
