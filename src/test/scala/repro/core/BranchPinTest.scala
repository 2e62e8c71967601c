package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{LocalGraph, TestGraphs}

/** Pins the search trees of the bitset recursions. For every bitset
  * configuration of the correctness sweep, plus Degen(bit), it takes an
  * order-sensitive fingerprint of every clique emitted in listing mode (each
  * stack as emitted, unsorted) and, for the VBBkC configurations, of every
  * count handed to the sink in counting mode. The fixtures have subproblems
  * of one to three words: the mixed-width graph at k = 5..7, both
  * word-boundary graphs at k = 4, 5 and K70 at k = 3, 4. EBBkC-T's
  * configurations are pinned again, in both modes, on cells deep enough to
  * branch at depth two and beyond: the mixed-width graph at k = 5..9 and
  * both word-boundary graphs at k = 4..6. A refactor that keeps each
  * recursion's branching order, prunes and emissions keeps every value.
  */
class BranchPinTest extends AnyFunSuite {
  import KernelFixtures.{algos, mixedWidth, wordBoundary}

  private def cellsAt(mixedKs: Range, boundaryKs: Range): Seq[(LocalGraph, Int)] =
    mixedKs.map(k => (mixedWidth, k)) ++
      wordBoundary.flatMap { case (_, g) => boundaryKs.map(k => (g, k)) } ++
      (3 to 4).map(k => (TestGraphs.complete(70), k))
  private val cells = cellsAt(5 to 7, 4 to 5)

  private val bitsetAlgos: Seq[AlgoConfig] = algos.filter {
    case v: VbbkcAlgo => v.bitset
    case _: EbbkcAlgo => true
  } :+ VbbkcAlgo(SubNatural, bitset = true)

  /** FNV-1a over 64-bit values: every emitted stack (its length, then its
    * entries) or count, in emission order, over all cells of `on`.
    */
  private def fingerprint(cfg: AlgoConfig, listing: Boolean, on: Seq[(LocalGraph, Int)] = cells): String = {
    var h = 0xcbf29ce484222325L
    def mix(x: Long): Unit = h = (h ^ x) * 0x100000001b3L
    val sink = new CliqueSink {
      override def wantsCliques: Boolean = listing
      override def onClique(stack: Array[Int], len: Int): Unit = {
        mix(len)
        var i = 0
        while (i < len) { mix(stack(i)); i += 1 }
      }
      override def onCount(c: Long): Unit = { mix(-1L); mix(c) }
    }
    for ((g, k) <- on) {
      mix(-2L - k)
      val prep = KClique.prepare(g, k, cfg)
      val kernel = prep.newKernel()
      for (id <- 0 until prep.numSubproblems) kernel.run(id, sink)
    }
    f"$h%016x"
  }

  // Taken from the recursions as they stood before EBBkC-H/C and VBBkC
  // shared one word-row recursion.
  private val pinned: Map[String, String] = Map(
    "SDegree list" -> "ac4c20323e743ef8",
    "BitCol list" -> "6c92637d5e26387c",
    "BitCol+ list" -> "6c92637d5e26387c",
    "BitCol (EP) list" -> "033418ff47ae524a",
    "BitCol++ET(t=3) list" -> "ae6efa6bff45de24",
    "SDegree+ET(t=2) list" -> "aaafcfd6df242b22",
    "EBBkC-T list" -> "8fa17c3806e44844",
    "EBBkC-T+ET(t=2) list" -> "62ccfeae3205069a",
    "EBBkC-T+ET(t=4) list" -> "7b5179dcb4f62d96",
    "EBBkC-C list" -> "618bf922126b8616",
    "EBBkC-C(stc) list" -> "618bf922126b8616",
    "EBBkC-C+ET(t=3) list" -> "1ebb92455aaeaaa6",
    "EBBkC list" -> "847b7620e5839414",
    "EBBkC(stc) list" -> "847b7620e5839414",
    "EBBkC+ET(t=1) list" -> "1245f87635d211ba",
    "EBBkC+ET(t=2) list" -> "44a93176854be492",
    "EBBkC+ET(t=3) list" -> "6bbca70c08ddc716",
    "EBBkC+ET(t=5) list" -> "c0b9bcc594a9105a",
    "EBBkC+ET list" -> "44a93176854be492",
    "Degen(bit) list" -> "785ce9352a57aae6",
    "SDegree count" -> "ca7fb65765f9cd4f",
    "BitCol count" -> "acfc42d3d08e4e9a",
    "BitCol+ count" -> "acfc42d3d08e4e9a",
    "BitCol (EP) count" -> "f070452e4b92871f",
    "BitCol++ET(t=3) count" -> "84fa1739aeae2964",
    "SDegree+ET(t=2) count" -> "8585005380691fcf",
    "Degen(bit) count" -> "03208fc58e94b055"
  )

  // Taken from EBBkC-T as it stood with one set of rows per branching depth.
  private val deepT: Map[String, String] = Map(
    "EBBkC-T list" -> "b3e65917ab6ed414",
    "EBBkC-T count" -> "5107f8390a6a93eb",
    "EBBkC-T+ET(t=2) list" -> "db3fe67681bd0fbe",
    "EBBkC-T+ET(t=2) count" -> "da59632f40da1e7c",
    "EBBkC-T+ET(t=4) list" -> "2b189d38fdfc8fa6",
    "EBBkC-T+ET(t=4) count" -> "137d0c6230c9d773"
  )

  for (cfg <- bitsetAlgos)
    test(s"${cfg.name}: listing order on the multi-word fixtures is pinned") {
      val key = s"${cfg.name} list"
      assert(fingerprint(cfg, listing = true) == pinned.getOrElse(key, ""), key)
    }

  for (cfg <- bitsetAlgos if cfg.isInstanceOf[VbbkcAlgo])
    test(s"${cfg.name}: counting-mode sink calls on the multi-word fixtures are pinned") {
      val key = s"${cfg.name} count"
      assert(fingerprint(cfg, listing = false) == pinned.getOrElse(key, ""), key)
    }

  test("EBBkC-T: listing order and counting-mode sink calls at depth two and beyond are pinned") {
    val truss = algos.collect { case a: EbbkcAlgo if a.ordering == TrussOrdering => a }
    assert(truss.map(_.name).toSet == Set("EBBkC-T", "EBBkC-T+ET(t=2)", "EBBkC-T+ET(t=4)"))
    val deep = cellsAt(5 to 9, 4 to 6)
    for (cfg <- truss; listing <- Seq(true, false)) {
      val key = s"${cfg.name} ${if (listing) "list" else "count"}"
      assert(fingerprint(cfg, listing, deep) == deepT(key), key)
    }
  }
}
