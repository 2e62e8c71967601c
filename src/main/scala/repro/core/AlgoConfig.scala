package repro.core

/** Edge orderings for the EBBkC framework (Section 4). */
sealed trait EOrdering extends Serializable
/** Truss-based edge ordering (EBBkC-T, Section 4.2). */
case object TrussOrdering extends EOrdering
/** Color-based edge ordering via a global color DAG (EBBkC-C, Section 4.3). */
case object ColorOrdering extends EOrdering
/** Truss ordering at the initial branch, color DAGs below (EBBkC-H, Section 4.4). */
case object HybridOrdering extends EOrdering

/** Sub-branch vertex orderings for the VBBkC baselines (Section 3 / 7). */
sealed trait VSub extends Serializable
/** Degeneracy ordering reused inside sub-branches (Degen of Danisch et al.). */
case object SubNatural extends VSub
/** Degree ordering inside sub-branches (DDegree / SDegree). */
case object SubDegree extends VSub
/** Color ordering inside sub-branches with color pruning (DDegCol / BitCol). */
case object SubColor extends VSub

/** Early-termination configuration (Section 5). */
sealed trait EtMode extends Serializable {

  /** The threshold t for k-clique listing (0 = off), given the graph's tau
    * when the ordering computed it; the paper's rule needs tau, so without
    * it EtAuto resolves to 3.
    */
  def threshold(k: Int, tau: Option[Int]): Int = this match {
    case EtOff      => 0
    case EtFixed(t) => t
    case EtAuto     => if (tau.exists(k <= _ / 2)) 2 else 3
  }

  /** The algorithm-name suffix: "", "+ET" or "+ET(t=...)". */
  def suffix: String = this match { case EtOff => ""; case EtAuto => "+ET"; case EtFixed(t) => s"+ET(t=$t)" }
}
case object EtOff extends EtMode
/** Terminate branches whose graph is a t-plex for this fixed t. */
final case class EtFixed(t: Int) extends EtMode
/** The paper's default: t = 2 when k <= tau/2, t = 3 otherwise. */
case object EtAuto extends EtMode

sealed trait AlgoConfig extends Serializable { def name: String }

/** An instance of the edge-oriented branching framework. */
final case class EbbkcAlgo(
    ordering: EOrdering,
    rule2: Boolean = true,
    et: EtMode = EtOff
) extends AlgoConfig {
  def name: String = {
    val base = ordering match {
      case TrussOrdering  => "EBBkC-T"
      case ColorOrdering  => "EBBkC-C"
      case HybridOrdering => "EBBkC"
    }
    val r = if (!rule2 && ordering != TrussOrdering) "(stc)" else ""
    base + r + et.suffix
  }
}

/** An instance of the vertex-oriented branching framework (the baselines).
  *
  * @param edgeParallel when distributed, fan out one subproblem per
  *                     degeneracy-DAG edge (the EP scheme of Section 6(7))
  *                     instead of one per vertex (NP)
  */
final case class VbbkcAlgo(
    sub: VSub,
    bitset: Boolean = false,
    rule2: Boolean = false,
    et: EtMode = EtOff,
    edgeParallel: Boolean = false
) extends AlgoConfig {
  require(et == EtOff || bitset, "early termination runs on bitset rows only")
  require(!rule2 || sub == SubColor, "Rule (2) needs the color sub-ordering")
  def name: String = {
    val base = (sub, bitset) match {
      case (SubNatural, false) => "Degen"
      case (SubNatural, true)  => "Degen(bit)"
      case (SubDegree, false)  => "DDegree"
      case (SubDegree, true)   => "SDegree"
      case (SubColor, false)   => "DDegCol"
      case (SubColor, true)    => "BitCol"
    }
    val r = if (rule2) "+" else ""
    val p = if (edgeParallel) " (EP)" else ""
    base + r + et.suffix + p
  }
}

/** Named algorithm instances matching the paper's experiment section. */
object Algos {
  /** Baselines of Figures 4–5 (SDegree/BitCol use bitset adjacency — the
    * JVM stand-in for their SIMD set intersections).
    */
  val Degen: VbbkcAlgo = VbbkcAlgo(SubNatural)
  val DDegree: VbbkcAlgo = VbbkcAlgo(SubDegree)
  val DDegCol: VbbkcAlgo = VbbkcAlgo(SubColor)
  val SDegree: VbbkcAlgo = VbbkcAlgo(SubDegree, bitset = true)
  val BitCol: VbbkcAlgo = VbbkcAlgo(SubColor, bitset = true)

  /** Ablation variants of Figure 6: SOTA VBBkC + the new Rule (2). */
  val DDegColPlus: VbbkcAlgo = DDegCol.copy(rule2 = true)
  val BitColPlus: VbbkcAlgo = BitCol.copy(rule2 = true)

  /** EBBkC-H without early termination (= "EBBkC" in Figure 6). */
  val EBBkC: EbbkcAlgo = EbbkcAlgo(HybridOrdering, rule2 = true)
  /** The paper's headline algorithm: hybrid ordering + early termination. */
  val EBBkCET: EbbkcAlgo = EbbkcAlgo(HybridOrdering, rule2 = true, et = EtAuto)
  /** Ordering-effect variants of Figure 7 (all with ET, per the paper). */
  val EBBkCT_ET: EbbkcAlgo = EbbkcAlgo(TrussOrdering, et = EtAuto)
  val EBBkCC_ET: EbbkcAlgo = EbbkcAlgo(ColorOrdering, rule2 = true, et = EtFixed(3))
  /** Rule-effect variant of Figure 8: hybrid + ET but without Rule (2). */
  val EBBkCStcET: EbbkcAlgo = EbbkcAlgo(HybridOrdering, rule2 = false, et = EtAuto)
  /** VBBkC+ET used in the parallel comparison of Figure 10. */
  val VBBkCET: VbbkcAlgo = VbbkcAlgo(SubColor, bitset = true, rule2 = true, et = EtFixed(3))
}
