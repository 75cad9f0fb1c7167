package perfbench

import java.lang.management.ManagementFactory

import scala.util.control.NonFatal

import repro.core.PaneAgg
import repro.events.Event
import repro.hamlet.HamletExecutor
import repro.harness.BenchHarness
import repro.metrics.Metrics

/** One engine-only pass: events → `BenchHarness.partition` →
  * `HamletExecutor.processPaneAggs` per (group, pane) unit, closed loop.
  */
final case class EnginePass(
    wallNs: Long,
    partitionNs: Long,
    units: Vector[(String, Long)],
    outs: Array[Map[String, PaneAgg]],
    latNs: Array[Long],
    metrics: Metrics,
    allocBytes: Long,
    errors: Vector[String],
) {
  def execNs: Long = latNs.sum

  def results: Iterator[(Check.PaneKey, PaneAgg)] =
    units.indices.iterator.flatMap { i =>
      val (grp, pane) = units(i)
      Option(outs(i)).iterator.flatMap(_.iterator.map { case (q, a) => ((q, grp, pane), a) })
    }

  def inexact: Long = results.count { case (_, a) => Check.inexact(a.c) }.toLong
}

object EngineRun {

  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes allocated so far by the calling thread. */
  def allocated(): Long = threads.getCurrentThreadAllocatedBytes

  /** Total collection time of all garbage collectors so far. */
  def gcMillis(): Long = {
    import scala.jdk.CollectionConverters._
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum
  }

  /** Counters that depend only on input, workload and policy; they must
    * repeat exactly across passes and runs of one seed.
    */
  def exactCounters(m: Metrics): Seq[(String, Long)] = Seq(
    "events" -> m.events, "eval_ops" -> m.evalOps, "snapshots" -> m.snapshotsCreated,
    "shared_bursts" -> m.sharedBursts, "total_bursts" -> m.totalBursts,
    "decisions" -> m.decisions, "plans_examined" -> m.plansExamined,
    "graphlets" -> m.graphlets, "shared_graphlets" -> m.sharedGraphlets,
    "peak_live_terms" -> m.peakLiveTerms, "peak_state_bytes" -> m.peakBytes)

  /** Runs one pass. With tracing on, the pass is a root span named `root`
    * with a partition span and one span per unit (id = group/pane), and
    * the thread's allocation during executor calls is counted.
    */
  def pass(exec: HamletExecutor, events: Vector[Event], paneMs: Long,
           tracer: Tracer, root: String): EnginePass = {
    val metrics = new Metrics
    val traced = tracer.on
    val rootSpan = tracer.begin(root)
    val t0 = System.nanoTime()
    val parts = BenchHarness.partition(events, paneMs)
    val t1 = System.nanoTime()
    tracer.record("harness.partition", "", t0, t1)
    val n = parts.size
    val outs = new Array[Map[String, PaneAgg]](n)
    val lat = new Array[Long](n)
    var alloc = 0L
    var errors = Vector.empty[String]
    var i = 0
    while (i < n) {
      val evs = parts(i)._2
      val a0 = if (traced) allocated() else 0L
      val u0 = System.nanoTime()
      outs(i) =
        try exec.processPaneAggs(evs, metrics)
        catch { case NonFatal(e) => errors :+= s"unit ${parts(i)._1}: $e"; null }
      val u1 = System.nanoTime()
      if (traced) {
        alloc += allocated() - a0
        tracer.record("hamlet.processPaneAggs", parts(i)._1, u0, u1)
      }
      lat(i) = u1 - u0
      i += 1
    }
    val t2 = System.nanoTime()
    tracer.end(rootSpan)
    EnginePass(t2 - t0, t1 - t0, parts.map(_._1), outs, lat, metrics, alloc, errors)
  }
}
