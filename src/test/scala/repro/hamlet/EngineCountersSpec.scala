package repro.hamlet

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

import repro.events.{Event, StreamGen}
import repro.harness.{BenchHarness, Workloads}
import repro.metrics.Metrics
import repro.query._
import repro.testkit.TestGen

/** Golden exact counters: the engine's algorithmic work (which nodes the
  * walk visits, which snapshots and graphlets it creates, which plans the
  * optimizer examines, the modeled state) is pinned per input and policy.
  * A change that keeps results but alters this work fails here, so "same
  * algorithm" is checked on every test run, not only in the benchmark.
  */
class EngineCountersSpec extends AnyFunSuite {

  /** Every exact counter of [[Metrics]] (timings excluded). */
  private def counters(m: Metrics): Vector[Long] = Vector(
    m.evalOps, m.snapshotsCreated, m.sharedBursts, m.totalBursts, m.decisions,
    m.plansExamined, m.graphlets, m.sharedGraphlets, m.peakLiveTerms, m.peakBytes)

  private def run(qs: Seq[TrendQuery], events: Seq[Event], policy: SharingPolicy): Vector[Long] = {
    val wl = Workload.compile(qs)
    val exec = new HamletExecutor(wl, policy)
    val m = new Metrics
    BenchHarness.partition(events, wl.paneMs).foreach { case (_, evs) => exec.processPaneAggs(evs, m) }
    counters(m)
  }

  private val policies: Seq[(String, SharingPolicy)] =
    Seq("dynamic" -> Dynamic(), "always" -> AlwaysShare, "never" -> NeverShare)

  // Small Stock stream under the divergent stock workload 2.
  private val stockQs = Workloads.stockW2(12)
  private lazy val stockEvents = StreamGen.stockLike(4, 600, 4, seed = 11L)

  // Ridesharing: one member of the shared T+ set filters adjacent T pairs
  // by rising speed (materialized during shared bursts), one has a
  // per-event predicate.
  private val rideQs = Seq(
    TrendQuery("r0", Pattern.seq("R", "T+", "D"), window = QueryWindow(4, 2)),
    TrendQuery("r1", Pattern.seq("R", "T+"), window = QueryWindow(4, 2),
      edgePred = Some((a: Event, b: Event) => b.num("speed") >= a.num("speed"))),
    TrendQuery("r2", Pattern.seq("R", "T+", "C"), preds = Seq(NumPred("T", "speed", ">", 10)),
      window = QueryWindow(4, 2)),
    TrendQuery("r3", Pattern.seq("T+"), window = QueryWindow(4, 2)),
  )
  private lazy val rideEvents = StreamGen.ridesharing(4, 300, 6, seed = 5L)

  // Mid-pattern negation barriers inside and around the shared B+ set.
  private val negQs = Seq(
    TrendQuery("n0", Pattern.seq("A", "!C", "B+"), window = QueryWindow(4, 2)),
    TrendQuery("n1", Pattern.seq("A", "B+", "!D", "C"), window = QueryWindow(4, 2)),
    TrendQuery("n2", Pattern.seq("C", "B+"), Agg.Sum("B", "v"), window = QueryWindow(4, 2)),
    TrendQuery("n3", Pattern.seq("A", "B+"), Agg.Avg("B", "v"),
      preds = Seq(NumPred("B", "v", "<", 60)), window = QueryWindow(4, 2)),
  )
  private lazy val negEvents = TestGen.stream(new Random(77), 400, burstiness = 0.8)

  private val inputs: Seq[(String, Seq[TrendQuery], () => Seq[Event])] = Seq(
    ("stock", stockQs, () => stockEvents),
    ("ride", rideQs, () => rideEvents),
    ("neg", negQs, () => negEvents),
  )

  // evalOps, snapshots, shared bursts, total bursts, decisions, plans
  // examined, graphlets, shared graphlets, peak live terms, peak bytes.
  private val golden: Map[(String, String), Vector[Long]] = Map(
    ("stock", "dynamic") -> Vector(3751231L, 36L, 12L, 114L, 114L, 514L, 819L, 12L, 1L, 270248L),
    ("stock", "always")  -> Vector(1122132L, 4600L, 114L, 114L, 114L, 114L, 382L, 114L, 1L, 26784L),
    ("stock", "never")   -> Vector(4330536L, 0L, 0L, 114L, 114L, 114L, 908L, 0L, 0L, 276720L),
    ("ride", "dynamic")  -> Vector(156300L, 152L, 67L, 195L, 195L, 544L, 798L, 67L, 1L, 29080L),
    ("ride", "always")   -> Vector(74096L, 1096L, 195L, 195L, 195L, 195L, 400L, 195L, 1L, 13272L),
    ("ride", "never")    -> Vector(173324L, 0L, 0L, 195L, 195L, 195L, 950L, 0L, 0L, 30888L),
    ("neg", "dynamic")   -> Vector(64184L, 17L, 17L, 30L, 30L, 43L, 78L, 17L, 1L, 29760L),
    ("neg", "always")    -> Vector(44539L, 93L, 30L, 30L, 30L, 30L, 54L, 30L, 17L, 22640L),
    ("neg", "never")     -> Vector(127603L, 0L, 0L, 30L, 30L, 30L, 106L, 0L, 0L, 31840L),
  )

  for ((in, qs, evs) <- inputs; (pn, p) <- policies) {
    test(s"exact counters: $in / $pn") {
      assert(run(qs, evs(), p) == golden((in, pn)))
    }
  }
}
