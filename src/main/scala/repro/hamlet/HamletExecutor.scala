package repro.hamlet

import repro.core.{PaneAgg, PaneResult}
import repro.events.Event
import repro.metrics.Metrics
import repro.query.{CompiledQuery, CompiledWorkload}

/** Executes a whole compiled workload over one (group, pane): one
  * [[SetPaneEngine]] per sharable set (shared candidates, policy-driven)
  * plus one per singleton query (always non-shared). Events are processed
  * once per set — the sharing across queries *within* a set is the paper's
  * contribution; sharing across sets does not arise because sets share no
  * Kleene sub-pattern (Definition 5).
  */
final class HamletExecutor(wl: CompiledWorkload, policy: SharingPolicy) extends Serializable {

  // Channel layouts depend only on the workload, so they are fixed here
  // rather than recomputed for every unit.
  private val setLayouts = wl.sets.map(set => set -> ChannelSpec.forQueries(set.queries))
  private val singletonLayouts = wl.singletons.map(q => q -> ChannelSpec.forQueries(Seq(q)))

  /** Per-query aggregates for one pane of one group. */
  def processPaneAggs(events: Seq[Event], metrics: Metrics): Map[String, PaneAgg] = {
    val out = Map.newBuilder[String, PaneAgg]
    setLayouts.foreach { case (set, channels) =>
      val eng = new SetPaneEngine(set.queries, Some(set.sharedType), channels, policy, metrics)
      out ++= eng.processPane(events)
    }
    singletonLayouts.foreach { case (q, channels) =>
      val eng = new SetPaneEngine(Vector(q), None, channels, NeverShare, metrics)
      out ++= eng.processPane(events)
    }
    out.result()
  }

  /** Flat result rows for the Spark runners. */
  def processPane(grp: String, pane: Long, events: Seq[Event], metrics: Metrics): Vector[PaneResult] =
    processPaneAggs(events, metrics).toVector.sortBy(_._1).map {
      case (qid, agg) => PaneResult.of(qid, grp, pane, agg)
    }
}

/** The Greta baseline [33] (§3.2): every query runs independently on its
  * own event graph ([[repro.greta.GretaGraph]], the published O(n) per
  * event propagation). No sharing across queries — each query
  * re-processes every event — and no pane sharing across overlapping
  * windows: the bench harness re-processes each pane once per window
  * instance per query.
  */
object GretaEngine {
  def processPane(queries: Seq[CompiledQuery], events: Seq[Event], metrics: Metrics): Map[String, PaneAgg] =
    queries.map(q => q.id -> repro.greta.GretaGraph.processPane(q, events, metrics)).toMap
}
