package repro.graph

import scala.util.Random

/** Synthetic stand-ins for the paper's 19 real graphs (Table 1).
  *
  * The originals (Network Repository dumps up to 543M edges) are unavailable
  * offline, so each is replaced by a deterministic synthetic graph at roughly
  * 1/100 scale assembled from three ingredients that control exactly the
  * statistics the paper's analysis depends on:
  *
  *   - a sparse background (power-law or uniform) fixing |V|, |E| and the
  *     degree profile (hub-heavy for social/web graphs, near-regular for
  *     meshes);
  *   - an Erdos–Renyi "blob" whose density drives the degeneracy delta above
  *     the truss bound tau, reproducing the small-omega regime where
  *     tau/delta < 0.8;
  *   - planted cliques fixing omega (capped at 40 so baselines finish; the
  *     paper's large-omega graphs are dominated by one near-omega clique,
  *     which gives delta ~ omega-1 and tau ~ omega-2 exactly as in Table 1).
  *
  * The regime of each stand-in (small- vs large-omega, tau < delta, hub vs
  * mesh) matches its paper counterpart even though absolute sizes do not;
  * EXPERIMENTS.md records both side by side.
  */
object SynthGraphs {

  /** Paper-reported statistics, kept for side-by-side tables. */
  final case class PaperStats(nV: Long, nE: Long, maxDeg: Int, delta: Int, tau: Int, omega: Int)

  final case class SynthSpec(
      name: String,
      paperName: String,
      smallOmega: Boolean,
      paper: PaperStats,
      build: () => LocalGraph
  )

  /** Background + blob + planted cliques, all deterministic in `seed`. */
  private def standIn(
      n: Int,
      mBase: Int,
      alpha: Double, // 0 => uniform background (mesh-like), else zipf exponent
      blob: Option[(Int, Double)],
      cliqueSizes: Seq[Int],
      seed: Long
  ): LocalGraph = {
    val base =
      if (alpha <= 0) GraphGen.gnm(n, mBase, seed)
      else GraphGen.powerLaw(n, mBase, alpha, seed)
    val rnd = new Random(seed * 31 + 7)
    def randomSubset(size: Int): Array[Int] = {
      val chosen = scala.collection.mutable.LinkedHashSet.empty[Int]
      while (chosen.size < size) chosen += rnd.nextInt(n)
      chosen.toArray
    }
    val blobEdges: Iterator[(Int, Int)] = blob match {
      case Some((size, p)) =>
        val verts = randomSubset(size)
        val core = GraphGen.gnp(size, p, seed * 13 + 1)
        core.edges.map { case (a, b) => (verts(a), verts(b)) }
      case None => Iterator.empty
    }
    val cliqueEdges = cliqueSizes.iterator.flatMap { size =>
      val verts = randomSubset(size)
      for (i <- verts.indices.iterator; j <- (i + 1 until verts.length).iterator)
        yield (verts(i), verts(j))
    }
    LocalGraph.fromEdges(n, base.edges ++ blobEdges ++ cliqueEdges)
  }

  private def spec(
      name: String, paperName: String, smallOmega: Boolean, paper: PaperStats,
      n: Int, mBase: Int, alpha: Double, blob: Option[(Int, Double)],
      cliques: Seq[Int], seed: Long
  ): SynthSpec =
    SynthSpec(name, paperName, smallOmega, paper, () => standIn(n, mBase, alpha, blob, cliques, seed))

  /** All 19 stand-ins, in the order of Table 1. */
  val all: Vector[SynthSpec] = Vector(
    // ---- small-omega group: dense blob separates delta from tau ----
    spec("NA", "nasasrb",   smallOmega = true, PaperStats(54870, 1311227, 275, 35, 22, 24),
      n = 1600, mBase = 14000, alpha = 0, blob = Some((130, 0.62)), cliques = Seq(18, 15, 13), seed = 101),
    spec("FB", "fbwosn",    smallOmega = true, PaperStats(63731, 817090, 2000, 52, 35, 30),
      n = 1900, mBase = 9000, alpha = 1.3, blob = Some((130, 0.40)), cliques = Seq(20, 17, 14), seed = 102),
    spec("WK", "wikitrust", smallOmega = true, PaperStats(138587, 715883, 12000, 64, 31, 25),
      n = 4000, mBase = 8000, alpha = 1.6, blob = Some((170, 0.65)), cliques = Seq(20, 16, 13), seed = 103),
    spec("SH", "shipsec5",  smallOmega = true, PaperStats(179104, 2200076, 75, 29, 22, 24),
      n = 5200, mBase = 23000, alpha = 0, blob = Some((80, 0.36)), cliques = Seq(18, 15), seed = 104),
    spec("SO", "socfba",    smallOmega = true, PaperStats(3097165, 23667394, 5000, 74, 29, 25),
      n = 30000, mBase = 90000, alpha = 1.4, blob = Some((190, 0.40)), cliques = Seq(20, 16, 14), seed = 105),
    spec("PO", "pokec",     smallOmega = true, PaperStats(1632803, 22301964, 15000, 47, 27, 29),
      n = 16000, mBase = 85000, alpha = 1.4, blob = Some((170, 0.65)), cliques = Seq(20, 17, 15, 12), seed = 106),
    spec("CN", "wikicn",    smallOmega = true, PaperStats(1930270, 8956902, 30000, 127, 31, 33),
      n = 19000, mBase = 45000, alpha = 1.6, blob = Some((300, 0.42)), cliques = Seq(22, 18, 15), seed = 107),
    spec("BA", "baidu",     smallOmega = true, PaperStats(2140198, 17014946, 98000, 82, 29, 31),
      n = 21000, mBase = 70000, alpha = 1.7, blob = Some((210, 0.40)), cliques = Seq(21, 17, 14), seed = 108),
    // ---- large-omega group: one dominant planted clique ----
    spec("WE", "websk",     smallOmega = false, PaperStats(121422, 334419, 590, 81, 80, 82),
      n = 1200, mBase = 3300, alpha = 1.3, blob = None, cliques = Seq(30, 12, 10), seed = 109),
    spec("CI", "citeseer",  smallOmega = false, PaperStats(227320, 814134, 1000, 86, 85, 87),
      n = 2300, mBase = 8000, alpha = 1.3, blob = None, cliques = Seq(32, 14, 11), seed = 110),
    spec("ST", "stanford",  smallOmega = false, PaperStats(281904, 1992636, 39000, 86, 61, 61),
      n = 2800, mBase = 20000, alpha = 1.6, blob = Some((140, 0.45)), cliques = Seq(28, 16, 12), seed = 111),
    spec("DB", "dblp",      smallOmega = false, PaperStats(317080, 1049866, 343, 113, 112, 114),
      n = 3200, mBase = 10000, alpha = 1.2, blob = None, cliques = Seq(36, 15, 12, 10), seed = 112),
    spec("DE", "dielfilter", smallOmega = false, PaperStats(420408, 16232900, 302, 56, 43, 45),
      n = 4200, mBase = 160000, alpha = 0, blob = Some((110, 0.45)), cliques = Seq(24, 14), seed = 113),
    spec("DG", "digg",      smallOmega = false, PaperStats(770799, 5907132, 18000, 236, 72, 50),
      n = 7700, mBase = 59000, alpha = 1.6, blob = Some((300, 0.45)), cliques = Seq(26, 15, 12), seed = 114),
    spec("SK", "skitter",   smallOmega = false, PaperStats(1696415, 11095298, 35000, 111, 67, 67),
      n = 17000, mBase = 110000, alpha = 1.7, blob = Some((200, 0.42)), cliques = Seq(28, 16), seed = 115),
    spec("OR", "orkut",     smallOmega = false, PaperStats(2997166, 106349209, 28000, 253, 74, 47),
      n = 15000, mBase = 260000, alpha = 1.4, blob = Some((360, 0.40)), cliques = Seq(24, 15, 12), seed = 116),
    spec("UK", "allwebuk",  smallOmega = false, PaperStats(18483186, 261787258, 3000000, 943, 942, 944),
      n = 40000, mBase = 300000, alpha = 1.8, blob = None, cliques = Seq(40, 18, 14), seed = 117),
    spec("CW", "clueweb",   smallOmega = false, PaperStats(147925593L, 446766953L, 1000000, 192, 83, 56),
      n = 60000, mBase = 200000, alpha = 1.9, blob = Some((250, 0.42)), cliques = Seq(26, 16), seed = 118),
    spec("WP", "wikipedia", smallOmega = false, PaperStats(25921548, 543183611, 4000000, 1120, 426, 428),
      n = 45000, mBase = 330000, alpha = 1.8, blob = Some((300, 0.40)), cliques = Seq(38, 18), seed = 119)
  )

  private lazy val byName: Map[String, SynthSpec] = all.map(s => s.name -> s).toMap

  def apply(name: String): LocalGraph = byName(name).build()

  /** The four default datasets of the paper's experiments. */
  val defaults: Vector[String] = Vector("WK", "PO", "ST", "OR")
}
