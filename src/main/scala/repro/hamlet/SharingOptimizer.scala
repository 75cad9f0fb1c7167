package repro.hamlet

import repro.events.Event
import repro.query.CompiledQuery

/** How an engine decides to share bursts of the sharable Kleene type. */
sealed trait SharingPolicy extends Serializable
/** Never share — Greta-style independent processing (§3.2). */
case object NeverShare extends SharingPolicy
/** Static compile-time decision to always share the full query set. */
case object AlwaysShare extends SharingPolicy
/** The Hamlet dynamic optimizer (§4): per-burst benefit-driven decisions
  * with the query-set choice of §4.3.
  */
final case class Dynamic(model: CostModel = Eq8Model) extends SharingPolicy

/** Outcome of one per-burst decision.
  *
  * @param sharedIdx     indices (into the engine's query vector) chosen to
  *                      share; sharing happens iff `sharedIdx.size >= 2`
  *                      and `benefit > 0` (AlwaysShare forces it)
  * @param benefit       estimated Benefit(G_E, Q_E) for the chosen set
  * @param stats         the statistics the decision used
  * @param plansExamined m+1 per §4.3's complexity analysis
  */
final case class Decision(
    sharedIdx: Vector[Int],
    benefit: Double,
    stats: BurstStats,
    plansExamined: Int,
) {
  def share: Boolean = sharedIdx.size >= 2 && benefit > 0
}

/** Per-burst sharing decisions (§4.2) and choice of query set (§4.3).
  *
  * Pruning principles: queries that introduce no snapshots for this burst
  * are always shared (Theorem 4.1); a snapshot-introducing query is kept
  * iff its marginal snapshot-maintenance cost `s_c(q)·g·p` does not exceed
  * its re-computation cost `b·(log2 g + n)` (Theorem 4.2). Only the m+1
  * plans of Levels 1–2 of the plan lattice are examined.
  */
object SharingOptimizer {

  /** Cap on the number of burst events inspected when estimating
    * divergence; beyond it we sample with a stride and extrapolate (the
    * paper plugs "locally available stream statistics" into Eq. 8).
    */
  val SampleCap = 64

  /** Decide whether (and by which queries) to share a burst.
    *
    * @param burst       the complete burst of events of the shared type
    * @param queries     the sharable set Q_E
    * @param sharedType  the Kleene type E
    * @param eventsSoFar events of this (group, pane) processed before the
    *                    burst — the `n` of the model
    */
  def decide(
      policy: SharingPolicy,
      burst: collection.IndexedSeq[Event],
      queries: Vector[CompiledQuery],
      sharedType: String,
      eventsSoFar: Long,
  ): Decision = {
    val k = queries.size
    val all = queries.indices.toVector
    val b = burst.size.toLong
    val p = queries.map(_.tpl.predTypes(sharedType).size).sum.toDouble / k
    val t = queries.map(_.tpl.types.size).sum.toDouble / k

    def stats(sC: Long, sP: Long, kk: Int): BurstStats =
      BurstStats(b = b, n = eventsSoFar + b, g = b, k = kk, p = p, t = t, sC = sC, sP = sP)

    policy match {
      case NeverShare =>
        Decision(Vector.empty, Double.NegativeInfinity, stats(0, 0, k), 1)

      case AlwaysShare =>
        Decision(all, Double.PositiveInfinity, stats(1, 1, k), 1)

      case Dynamic(model) =>
        val startFlags = queries.map(_.tpl.startTypes.contains(sharedType)).toArray
        val startUniform = startFlags.forall(_ == startFlags(0))
        // O(1) fast path (§4.2: the decision "simply plugs in locally
        // available stream statistics"): without per-event predicates or
        // edge predicates no event can diverge, so s_c = s_p = 1.
        if (queries.forall(q => q.q.preds.isEmpty && q.q.edgePred.isEmpty) && startUniform) {
          val st = stats(1, 1, k)
          return Decision(all, model.benefit(st), st, 1)
        }
        // Sample the burst for predicate divergence; each sampled event's
        // match flags are computed once, for both passes below.
        val stride = math.max(1, burst.size / SampleCap)
        val qArr = queries.toArray
        val sample = burst.indices.by(stride).map { j =>
          val e = burst(j)
          val matched = new Array[Boolean](k)
          var i = 0
          while (i < k) { matched(i) = qArr(i).q.matches(e); i += 1 }
          matched
        }
        val scale  = b.toDouble / sample.size

        // Per-query divergence counts d(q): minority membership per event.
        val startMajority = startFlags.count(identity) * 2 >= k
        val d = new Array[Long](k)
        sample.foreach { matched =>
          val nMatched = matched.count(identity)
          val uniform = (nMatched == 0 || nMatched == k) && startUniform
          if (!uniform) {
            val majority = nMatched * 2 >= k
            var i = 0
            while (i < k) {
              if (matched(i) != majority || !startUniform && startFlags(i) != startMajority) d(i) += 1
              i += 1
            }
          }
        }

        val g = b
        val log2g = math.log(math.max(g, 1).toDouble) / math.log(2.0)
        val n = eventsSoFar + b
        val m = d.count(_ > 0) // queries introducing snapshots
        // Thm 4.1: d(q) == 0 -> always share. Thm 4.2: keep q iff marginal
        // snapshot cost <= its re-computation cost.
        val chosen = all.filter { i =>
          d(i) == 0L || (d(i) * scale) * g * p <= b * (log2g + n)
        }
        // Re-estimate s_c for the chosen set (divergence w.r.t. the set).
        var divChosen = 0L
        if (chosen.size >= 2) {
          val ch = chosen.toArray
          val sUni = ch.forall(i => startFlags(i) == startFlags(ch(0)))
          sample.foreach { matched =>
            var nm = 0
            var j = 0
            while (j < ch.length) { if (matched(ch(j))) nm += 1; j += 1 }
            if ((nm != 0 && nm != ch.length) || !sUni) divChosen += 1
          }
        }
        val sC = 1L + (divChosen * scale).round // graphlet snapshot + event snapshots
        val sP = 1L + (divChosen * scale).round
        val st = stats(sC, sP, chosen.size)
        val ben = if (chosen.size >= 2) model.benefit(st) else Double.NegativeInfinity
        Decision(chosen, ben, st, m + 1)
    }
  }
}
