package perfbench

import java.io.File

import scala.collection.mutable
import scala.util.control.NonFatal

import org.apache.spark.sql.{Dataset, SparkSession}

import repro.core.{PaneAgg, PaneResult}
import repro.events.Event
import repro.hamlet.{AlwaysShare, Dynamic, HamletExecutor, NeverShare, SharingPolicy}
import repro.query.{CompiledWorkload, Workload}

object Stats {
  /** Linear-interpolation percentile, q in [0, 1]. */
  def percentile(xs: Seq[Double], q: Double): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      val pos = (s.size - 1) * q
      val lo = pos.floor.toInt
      s(lo) + (s(pos.ceil.toInt) - s(lo)) * (pos - lo)
    }

  def median(xs: Seq[Double]): Double = percentile(xs, 0.5)
}

final case class Opts(
    workload: String,
    seed: Long,
    seconds: Int,
    trace: Boolean,
    work: File,
    out: File,
    gitSha: String,
    sourceHash: String,
)

object Opts {
  def parse(args: Array[String]): Opts = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(need("workload"), need("seed").toLong, need("seconds").toInt, need("trace") == "1",
      new File(need("work")), new File(need("out")),
      m.getOrElse("git-sha", "unknown"), m.getOrElse("source-hash", "unknown"))
  }
}

/** One benchmark run: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
  *
  * Untraced runs time closed-loop passes for `--seconds` and report the
  * end-to-end metrics; traced runs split the time between untraced and
  * traced passes and report the per-layer metrics. Every output is checked
  * against a reference computed before timing starts.
  */
object Main {
  def main(args: Array[String]): Unit = {
    val o = Opts.parse(args)
    val known = Inputs.all ++ Inputs.unlisted
    val spec = known.find(_.name == o.workload).getOrElse {
      System.err.println(s"unknown workload ${o.workload}; known: ${known.map(_.name).mkString(", ")}")
      sys.exit(2)
    }
    val line = new Bench(spec, o).run()
    println(line)
    Console.out.flush()
    sys.exit(0)
  }
}

final class Bench(spec: Spec, o: Opts) {
  import Check.PaneKey

  private val off = new Tracer(false)
  private val tracer = new Tracer(o.trace)
  private val tally = new Check.Tally
  private val problems = mutable.ArrayBuffer.empty[String]
  private val e2e = mutable.LinkedHashMap.empty[String, (Double, String, String)]
  private val layer = mutable.LinkedHashMap.empty[String, Double]
  private val record = mutable.LinkedHashMap[String, Any]("spark_master" -> "none (engine only)")
  private val budgetNs = o.seconds * 1_000_000_000L

  // Traced runs and the Spark paths use stream 0 only.
  private val inputs: Vector[Vector[Event]] =
    (0 until (if (o.trace || spec.path != EnginePath) 1 else spec.streams)).toVector
      .map(i => spec.generate(o.seed + i * Inputs.StreamSeedStride))
  private val events = inputs.head
  private val nEvents = events.size.toDouble

  def run(): String = {
    spec.path match {
      case EnginePath    => engine()
      case BatchPath     => batch()
      case StreamingPath => streaming()
    }
    output()
  }

  // ---------------------------------------------------------------- helpers

  /** Closed loop: repeats `step` at least once, and again while the time
    * left of `ns` is at least half the last step's.
    */
  private def loop[T](ns: Long)(step: => T): Vector[T] = {
    val t0 = System.nanoTime()
    val b = Vector.newBuilder[T]
    var last = 0L
    while (last == 0L || System.nanoTime() - t0 + last / 2 < ns) {
      val s0 = System.nanoTime()
      b += step
      last = math.max(System.nanoTime() - s0, 1L)
    }
    b.result()
  }

  private def ms(ns: Long): Double = ns / 1e6

  private def putE2e(name: String, v: Double, unit: String, note: String = ""): Unit =
    e2e(name) = (v, unit, note)

  private def paneKey(r: PaneResult): PaneKey = (r.queryId, r.grp, r.pane)

  private def exactCounters(p: EnginePass): Seq[(String, Long)] =
    EngineRun.exactCounters(p.metrics) :+ ("inexact_results" -> p.inexact)

  /** Checks an engine pass over stream `i` against the reference, and its
    * exact counters against the first pass of the same policy and stream.
    */
  private val firstCounters = mutable.HashMap.empty[(SharingPolicy, Int), Seq[(String, Long)]]
  private def checkEngine(what: String, policy: SharingPolicy, ref: Map[PaneKey, PaneAgg], p: EnginePass,
                          i: Int = 0): Unit = {
    tally.panes(what, ref, p.results)
    p.errors.take(3).foreach(e => problems += s"$what: $e")
    val c = exactCounters(p)
    val first = firstCounters.getOrElseUpdate((policy, i), c)
    if (c != first) problems += s"$what: exact counters differ between passes: $first vs $c"
  }

  private def enginePass(wl: CompiledWorkload, policy: SharingPolicy, t: Tracer, root: String): EnginePass =
    EngineRun.pass(new HamletExecutor(wl, policy), events, wl.paneMs, t, root)

  /** The reference: an untraced engine-only replay of one stream, outside
    * any timing.
    */
  private def reference(wl: CompiledWorkload, policy: SharingPolicy,
                        evs: Vector[Event] = events): (EnginePass, Map[PaneKey, PaneAgg]) = {
    val p = EngineRun.pass(new HamletExecutor(wl, policy), evs, wl.paneMs, off, "reference")
    if (p.errors.nonEmpty) throw new IllegalStateException(s"reference replay failed: ${p.errors.head}")
    (p, p.results.toMap)
  }

  /** Traced engine-layer passes: `Dynamic` repeated for `ns`, then one
    * `NeverShare` and one `AlwaysShare` pass over the same units.
    */
  private def engineLayers(wl: CompiledWorkload, ref: Map[PaneKey, PaneAgg], ns: Long): Vector[EnginePass] = {
    val dyn = loop(ns) {
      val g0 = EngineRun.gcMillis()
      val p = enginePass(wl, Dynamic(), tracer, "pass/dynamic")
      (p, EngineRun.gcMillis() - g0)
    }
    val never = enginePass(wl, NeverShare, tracer, "pass/never_share")
    val always = enginePass(wl, AlwaysShare, tracer, "pass/always_share")
    dyn.foreach { case (p, _) => checkEngine("traced dynamic pass", Dynamic(), ref, p) }
    checkEngine("never-share pass", NeverShare, ref, never)
    checkEngine("always-share pass", AlwaysShare, ref, always)

    val ps = dyn.map(_._1)
    def med(f: EnginePass => Double): Double = Stats.median(ps.map(f))
    val m = ps.head.metrics
    layer ++= Seq(
      "harness.partition_ms" -> med(p => ms(p.partitionNs)),
      "hamlet.executor_ms" -> med(p => ms(p.execNs)),
      "hamlet.decide_ms" -> med(p => ms(p.metrics.decisionNanos)),
      "hamlet.decide_share" -> med(p => p.metrics.decisionNanos.toDouble / math.max(p.execNs, 1L)),
      "hamlet.eval_ops" -> m.evalOps.toDouble,
      "hamlet.ns_per_eval_op" -> med(p => p.execNs.toDouble / math.max(p.metrics.evalOps, 1L)),
      "hamlet.snapshots" -> m.snapshotsCreated.toDouble,
      "hamlet.shared_bursts" -> m.sharedBursts.toDouble,
      "hamlet.total_bursts" -> m.totalBursts.toDouble,
      "hamlet.decisions" -> m.decisions.toDouble,
      "hamlet.plans_examined" -> m.plansExamined.toDouble,
      "hamlet.graphlets" -> m.graphlets.toDouble,
      "hamlet.shared_graphlets" -> m.sharedGraphlets.toDouble,
      "hamlet.peak_live_terms" -> m.peakLiveTerms.toDouble,
      "hamlet.peak_state_bytes" -> m.peakBytes.toDouble,
      "hamlet.alloc_bytes_per_event" -> med(_.allocBytes / nEvents),
      "hamlet.gc_ms" -> Stats.median(dyn.map(_._2.toDouble)),
      "hamlet.never_share_ms" -> ms(never.execNs),
      "hamlet.never_share_eval_ops" -> never.metrics.evalOps.toDouble,
      "hamlet.always_share_ms" -> ms(always.execNs),
      "hamlet.always_share_snapshots" -> always.metrics.snapshotsCreated.toDouble,
    )
    ps
  }

  private def putOverhead(untracedEps: Seq[Double], tracedEps: Seq[Double]): Unit =
    layer("trace.overhead") = Stats.median(untracedEps) / Stats.median(tracedEps) - 1.0

  private def putLatencies(latMs: Seq[Double], what: String): Unit = {
    val n = latMs.size
    val note = s"n=$n $what"
    putE2e("unit_latency_p50_ms", Stats.percentile(latMs, 0.50), "ms", note)
    putE2e("unit_latency_p95_ms", Stats.percentile(latMs, 0.95), "ms", note)
    // Shown only where at least ten samples lie beyond it.
    if (n >= 1000) putE2e("unit_latency_p99_ms", Stats.percentile(latMs, 0.99), "ms", note)
  }

  private def putThroughput(walls: Seq[Long], what: String): Unit =
    putE2e("throughput_eps", Stats.median(walls.map(w => nEvents / (w / 1e9))), "ev/s",
      s"median of ${walls.size} $what; walls ms ${walls.map(w => f"${w / 1e6}%.0f").mkString(" ")}")

  // ------------------------------------------------------------ engine path

  private def engine(): Unit = {
    var wl: CompiledWorkload = null
    var exec: HamletExecutor = null
    val root = tracer.begin("setup")
    val setups = (1 to 1001).map { _ =>
      val t0 = System.nanoTime()
      wl = tracer.span("query.compile")(Workload.compile(spec.queries()))
      exec = new HamletExecutor(wl, Dynamic())
      System.nanoTime() - t0
    }
    tracer.end(root)
    putE2e("setup_s", Stats.median(setups.map(_ / 1e9)), "s", "median of 1001 compile + executor constructions")

    val refs = inputs.map(reference(wl, NeverShare, _)._2)
    val ref = refs.head
    val warm = EngineRun.pass(exec, events, wl.paneMs, off, "warm-up")
    checkEngine("warm-up pass", Dynamic(), ref, warm)
    record("units") = warm.units.size
    record("exact_counters") = Json.Obj(exactCounters(warm): _*)

    if (o.trace) {
      val untraced = loop(budgetNs / 2)(EngineRun.pass(exec, events, wl.paneMs, off, "pass"))
      untraced.foreach(checkEngine("untraced pass", Dynamic(), ref, _))
      val traced = engineLayers(wl, ref, budgetNs / 2)
      putOverhead(untraced.map(nEvents * 1e9 / _.wallNs), traced.map(nEvents * 1e9 / _.wallNs))
      layer("results.inexact") = warm.inexact.toDouble
    } else {
      // The passes cycle through the streams, each at least once.
      var n = 0
      val t0 = System.nanoTime()
      val passes = Vector.newBuilder[(Int, EnginePass)]
      while (n < inputs.size || System.nanoTime() - t0 < budgetNs) {
        val i = n % inputs.size
        passes += i -> EngineRun.pass(exec, inputs(i), wl.paneMs, off, "pass")
        n += 1
      }
      val done = passes.result()
      done.foreach { case (i, p) => checkEngine(s"timed pass on stream $i", Dynamic(), refs(i), p, i) }
      val ps = done.map(_._2)
      putE2e("throughput_eps", done.map(x => inputs(x._1).size).sum / (ps.map(_.wallNs).sum / 1e9), "ev/s",
        s"all events ÷ all pass walls over ${ps.size} passes on ${inputs.size} streams")
      putLatencies(ps.flatMap(_.latNs.map(_ / 1e6)), "units")
      putE2e("peak_state_bytes", warm.metrics.peakBytes.toDouble, "bytes")
      putE2e("inexact_results", warm.inexact.toDouble, "count")
    }
  }

  // ------------------------------------------------------------- Spark paths

  /** Session start, compile and (batch) `toDS` plus caching the input,
    * repeated five times on fresh sessions; the last set-up is kept.
    */
  private def sparkSetup(withInput: Boolean): (SparkSession, CompiledWorkload, Dataset[Event]) = {
    var spark: SparkSession = null
    var wl: CompiledWorkload = null
    var input: Dataset[Event] = null
    val setups = (1 to 5).map { _ =>
      if (spark != null) spark.stop()
      val root = tracer.begin("setup")
      val t0 = System.nanoTime()
      spark = tracer.span("spark.session")(SparkRun.start(o.work))
      wl = tracer.span("query.compile")(Workload.compile(spec.queries()))
      if (withInput) input = tracer.span("spark.toDS")(SparkRun.toDS(spark, events))
      val t = System.nanoTime() - t0
      tracer.end(root)
      t
    }
    putE2e("setup_s", Stats.median(setups.map(_ / 1e9)), "s",
      s"median of 5 session starts + compile${if (withInput) " + toDS + cache" else ""}")
    record ++= SparkRun.info(spark)
    if (o.trace) {
      layer("spark.to_ds_ms") = Stats.median(tracer.durations("spark.toDS").map(ms))
    }
    (spark, wl, input)
  }

  private def putListener(c: TaskCounters, wallNs: Long, cores: Int): Unit = layer ++= Seq(
    "spark.tasks" -> c.tasks.toDouble,
    "spark.executor_run_ms" -> c.runMs.toDouble,
    "spark.executor_cpu_ms" -> c.cpuNs / 1e6,
    "spark.gc_ms" -> c.gcMs.toDouble,
    "spark.shuffle_write_bytes" -> c.shuffleWriteBytes.toDouble,
    "spark.shuffle_read_bytes" -> c.shuffleReadBytes.toDouble,
    "spark.shuffle_fetch_wait_ms" -> c.fetchWaitMs.toDouble,
    "spark.task_skew" -> c.taskSkew,
    "spark.busy_share" -> c.runMs / (ms(wallNs) * cores),
  )

  /** Runs a Spark step; if it throws, its `expected` results are lost. */
  private def guarded[T](what: String, expected: Long)(step: => T): Option[T] =
    try Some(step)
    catch { case NonFatal(e) => tally.lost(what, expected, e); None }

  private def batch(): Unit = {
    val (spark, wl, input) = sparkSetup(withInput = true)
    val (refPass, ref) = reference(wl, Dynamic())
    record("units") = refPass.units.size
    record("exact_counters") = Json.Obj(exactCounters(refPass): _*)
    val refWin = Check.rollup(wl, ref)
    def checkSplit(what: String, p: SparkRun.SplitPass): Unit = {
      tally.panes(s"$what pane results", ref, p.panes.iterator.map(r => paneKey(r) -> Check.agg(r)))
      tally.windows(s"$what windows", refWin, p.windows.iterator)
    }
    def timed(what: String, n: Long): Vector[Long] =
      loop(n)(guarded(what, refWin.size)(SparkRun.batchPass(spark, wl, input))).flatten.map {
        case (wall, rows) => tally.windows(what, refWin, rows.iterator); wall
      }

    guarded("warm-up", ref.size + refWin.size)(SparkRun.splitPass(spark, wl, input, off)).foreach { warm =>
      checkSplit("warm-up", warm)
      val inexact = warm.panes.count(r => Check.inexact(r.c)).toDouble
      putE2e("inexact_results", inexact, "count")
      layer("results.inexact") = inexact
    }

    if (o.trace) {
      engineLayers(wl, ref, 0L)
      val untraced = timed("untraced batch pass", budgetNs / 2)
      val (traced, counters) = SparkRun.counted(spark) {
        loop(budgetNs / 2)(guarded("traced batch pass", ref.size + refWin.size)(
          SparkRun.splitPass(spark, wl, input, tracer))).flatten
      }
      traced.foreach(checkSplit("traced batch pass", _))
      if (traced.nonEmpty) {
        layer ++= Seq(
          "spark.pane_results_ms" -> Stats.median(traced.map(p => ms(p.paneNs))),
          "spark.windowed_ms" -> Stats.median(traced.map(p => ms(p.windowNs))))
        putListener(counters, traced.map(_.wallNs).sum, spark.sparkContext.defaultParallelism)
        putOverhead(untraced.map(nEvents * 1e9 / _), traced.map(nEvents * 1e9 / _.wallNs))
      }
    } else {
      val walls = timed("timed batch pass", budgetNs)
      putThroughput(walls, "batch passes")
      // Every unit's results leave with the collect that ends its pass.
      putLatencies(walls.flatMap(w => Seq.fill(refPass.units.size)(w / 1e6)), "units (pass walls)")
    }
    spark.stop()
  }

  private def streaming(): Unit = {
    val (spark, wl, _) = sparkSetup(withInput = false)
    val (refPass, ref) = reference(wl, Dynamic())
    record("units") = refPass.units.size
    record("exact_counters") = Json.Obj(exactCounters(refPass): _*)
    val parts = SparkRun.slices(events, Inputs.SliceMs)
    val flush = SparkRun.flushEvents(events, wl)
    record("microbatches_per_pass") = parts.size + 1

    def pass(what: String, t: Tracer): Option[SparkRun.StreamPass] =
      guarded(what, ref.size)(SparkRun.streamPass(spark, wl, parts, flush, o.work, t)).map { p =>
        tally.panes(what, ref, p.emitted.iterator.map { case (_, r) => paneKey(r) -> Check.agg(r) })
        p
      }
    def firstEmits(p: SparkRun.StreamPass): Map[(String, Long), Long] =
      p.emitted.groupMapReduce { case (_, r) => (r.grp, r.pane) }(_._1)(math.min)
    def emittedStats(p: SparkRun.StreamPass): (Double, Double) = {
      val keys = p.emitted.map { case (_, r) => paneKey(r) }
      (p.emitted.count { case (_, r) => Check.inexact(r.c) }.toDouble, (keys.size - keys.distinct.size).toDouble)
    }

    // Warm-up, unchecked and untimed: the first two slices, then flush.
    val head = parts.take(2)
    try SparkRun.streamPass(spark, wl, head, SparkRun.flushEvents(head.flatten, wl), o.work, off)
    catch { case NonFatal(e) => problems += s"streaming warm-up: $e" }

    if (o.trace) {
      engineLayers(wl, ref, 0L)
      val untraced = pass("untraced streaming pass", off)
      val (traced, counters) = SparkRun.counted(spark)(pass("traced streaming pass", tracer))
      traced.foreach { p =>
        val (inexact, dups) = emittedStats(p)
        val trig = SparkRun.triggerMs(p.progress)
        layer ++= Seq(
          "stream.microbatches" -> p.progress.length.toDouble,
          "stream.microbatch_p50_ms" -> Stats.median(trig.toSeq),
          "stream.rows_emitted" -> p.emitted.size.toDouble,
          "stream.duplicate_panes" -> dups,
          "results.inexact" -> inexact,
        )
        layer ++= SparkRun.progressMetrics(p.progress).map { case (k, v) => s"stream.$k" -> v }
        putListener(counters, p.wallNs, spark.sparkContext.defaultParallelism)
        untraced.foreach(u => putOverhead(Seq(nEvents * 1e9 / u.wallNs), Seq(nEvents * 1e9 / p.wallNs)))
      }
    } else {
      val passes = loop(budgetNs)(pass("timed streaming pass", off)).flatten
      if (passes.nonEmpty) {
        putThroughput(passes.map(_.wallNs), "streaming passes")
        // A unit's latency runs from the submission of the micro-batch that
        // closes it to its results out of that micro-batch.
        putLatencies(passes.flatMap { p =>
          firstEmits(p).values.map { b =>
            val out = p.sinkNs(b)
            (out - p.startNs(p.startNs.lastIndexWhere(_ <= out))) / 1e6
          }
        }, "units (closing micro-batch in → pane result out)")
        val trig = passes.flatMap(p => SparkRun.triggerMs(p.progress).toSeq)
        putE2e("microbatch_p50_ms", Stats.median(trig), "ms", s"n=${trig.size} triggerExecution")
        val (inexact, dups) = emittedStats(passes.head)
        putE2e("inexact_results", inexact, "count")
        putE2e("duplicate_panes", dups, "count")
      }
    }
    spark.stop()
  }

  // ------------------------------------------------------------------ output

  private def output(): String = {
    val correct = tally.failed == 0 && problems.isEmpty
    putE2e("error_rate", tally.errorRate, "ratio", s"${tally.failed} of ${tally.attempted} results failed")
    val rec = Json.Obj(Seq[(String, Any)](
      "workload" -> spec.name, "seed" -> o.seed, "seconds" -> o.seconds, "trace" -> o.trace,
      "git_sha" -> o.gitSha, "source_hash" -> o.sourceHash,
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
      "streams" -> inputs.size, "events" -> inputs.map(_.size).sum, "params" -> spec.params) ++ record.toSeq: _*)
    println(s"record ${Json.enc(rec)}")
    (tally.examples ++ problems).foreach(p => println(s"FAILURE $p"))

    val reported: Seq[(String, (Double, String))] =
      if (o.trace) {
        layer("query.compile_ms") = Stats.median(tracer.durations("query.compile").map(ms))
        layer("trace.unattributed_share") = tracer.unattributedShare
        val file = new File(o.out, s"trace-${spec.name}-seed${o.seed}.json")
        tracer.write(file, rec)
        println(s"trace: ${tracer.durations("query.compile").size} compile spans; span file $file")
        println(f"${"span"}%-28s ${"self ms"}%12s")
        tracer.selfNanosByName.foreach { case (n, s) => println(f"$n%-28s ${s / 1e6}%12.3f") }
        MetricNames.PerLayer.map { case (n, u) => n -> (layer.getOrElse(n, 0.0), u) }
      } else {
        e2e.foreach { case (n, (v, u, note)) => println(f"$n%-22s $v%16.6f $u%-6s $note") }
        MetricNames.EndToEnd.map { case (n, u) => n -> (e2e.get(n).fold(0.0)(_._1), u) }
      }
    if (o.trace) reported.foreach { case (n, (v, u)) => println(f"$n%-32s $v%18.6f $u") }
    Json.enc(Json.Obj(
      "correct" -> correct,
      "attempted" -> tally.attempted,
      "failed" -> tally.failed,
      "metrics" -> Json.Obj(reported.map { case (n, (v, u)) => n -> Json.Obj("value" -> v, "unit" -> u) }: _*)))
  }
}
