package repro.spark

import scala.util.Random

import org.apache.spark.sql.classic
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, AdaptiveSparkPlanHelper, AQEShuffleReadExec, ShuffleQueryStageExec}
import org.apache.spark.sql.execution.exchange.REPARTITION_BY_NUM

import repro.{Oracle, SparkSpec}
import repro.core.PaneResult
import repro.events.Event
import repro.hamlet.{AlwaysShare, Dynamic, NeverShare}
import repro.metrics.Metrics
import repro.query._
import repro.testkit.{Engines, TrendSql}

/** The Dataset-based runner: results must match the direct engine calls,
  * and — via the DuckDB recursive-CTE path-counting oracle — the SQL
  * definition of trend counting.
  */
class SparkBatchSpec extends SparkSpec {

  private def mkEvents(seed: Int, n: Int, groups: Int, panes: Int, paneMs: Long): Vector[Event] = {
    val rnd = new Random(seed)
    val types = Vector("A", "B", "C", "D")
    (0 until n).toVector.map { i =>
      Event(i.toLong, rnd.nextLong(paneMs * panes).abs, types(rnd.nextInt(types.size)),
        s"g${rnd.nextInt(groups)}", Map("v" -> rnd.nextInt(100).toDouble))
    }.sortBy(e => (e.ts, e.id)).zipWithIndex.map { case (e, i) => e.copy(id = i.toLong) }
  }

  private val w42 = QueryWindow(4, 2)

  test("toDS round-trips events including attribute maps") {
    val events = mkEvents(1, 50, 3, 2, 120_000L)
    val ds = BatchRunner.toDS(spark, events)
    assert(ds.collect().toVector.sortBy(_.id) == events)
  }

  test("paneResults equals direct executor output across groups and panes") {
    val qs = Seq(
      TrendQuery("q1", Pattern.seq("A", "B+"), window = w42),
      TrendQuery("q2", Pattern.seq("C", "B+"), window = w42))
    val wl = Workload.compile(qs)
    val events = mkEvents(2, 120, 4, 3, wl.paneMs)
    val got = BatchRunner
      .paneResults(spark, wl, Dynamic(), BatchRunner.toDS(spark, events))
      .collect().toVector
      .map(r => (r.queryId, r.grp, r.pane) -> r.c).toMap

    val exec = new repro.hamlet.HamletExecutor(wl, Dynamic())
    val expected = events.groupBy(e => (e.grp, e.pane(wl.paneMs))).flatMap {
      case ((g, p), evs) =>
        exec.processPane(g, p, evs.sortBy(e => (e.ts, e.id)), new Metrics)
          .map(r => (r.queryId, r.grp, r.pane) -> r.c)
    }
    assert(got == expected)
  }

  /** A pane far enough out that `ts / paneMs` in floating point rounds
    * k·paneMs − 1 up into pane k.
    */
  private val farPane = 1L << 40

  /** Events that stress the (grp, pane) unit key: every group gets events
    * at both sides of each pane boundary (k·paneMs − 1 and k·paneMs, also
    * at `farPane`), and equal timestamps within and across groups whose
    * order only the id decides. The rows come in shuffled, so the runner
    * must sort them.
    */
  private def boundaryEvents(paneMs: Long, groups: Int, panes: Int): Vector[Event] = {
    val rnd = new Random(7)
    val types = Vector("A", "B", "C")
    val boundaries = (1L to panes.toLong) :+ farPane
    val stamps = boundaries.flatMap(k => Seq(k * paneMs - paneMs / 2, k * paneMs - 1, k * paneMs)) ++
      (0 until 3 * panes).map(_ => rnd.nextLong(paneMs * panes).abs)
    val evs = for {
      ts  <- stamps
      g   <- 0 until groups
      typ <- types.take(1 + rnd.nextInt(types.size))
    } yield (ts, typ, s"g$g")
    val withIds = evs.sortBy(_._1).zipWithIndex.map { case ((ts, typ, g), i) =>
      Event(i.toLong, ts, typ, g, Map("v" -> rnd.nextInt(100).toDouble))
    }
    rnd.shuffle(withIds.toVector)
  }

  private def directPaneResults(wl: CompiledWorkload, events: Seq[Event]): Vector[PaneResult] = {
    val exec = new repro.hamlet.HamletExecutor(wl, Dynamic())
    events.groupBy(e => (e.grp, e.pane(wl.paneMs))).toVector.flatMap { case ((g, p), evs) =>
      exec.processPane(g, p, evs.sortBy(e => (e.ts, e.id)), new Metrics)
    }
  }

  private def unitKey(r: PaneResult) = (r.queryId, r.grp, r.pane)

  for (partitions <- Seq(1, 7, 64)) {
    test(s"paneResults emits one exact row per unit at pane boundaries and ts ties ($partitions partitions)") {
      val qs = Seq(
        TrendQuery("cnt", Pattern.seq("A", "B+"), window = w42),
        TrendQuery("sum", Pattern.seq("C", "B+"), agg = Agg.Sum("B", "v"), window = w42),
        TrendQuery("min", Pattern.seq("B+", "C"), agg = Agg.Min("B", "v"), window = w42))
      val wl = Workload.compile(qs)
      val events = boundaryEvents(wl.paneMs, groups = 3, panes = 3)
      val got = withConf("spark.sql.shuffle.partitions" -> partitions.toString) {
        BatchRunner.paneResults(spark, wl, Dynamic(), BatchRunner.toDS(spark, events)).collect().toVector
      }
      val expected = directPaneResults(wl, events)
      assert(got.map(unitKey).distinct.size == got.size, "a unit was emitted more than once")
      assert(got.sortBy(unitKey) == expected.sortBy(unitKey))
      assert(got.map(_.pane).distinct.sorted == (0L to 3L) ++ Seq(farPane - 1, farPane))
    }
  }

  test("paneResults keeps one engine task per shuffle partition under AQE") {
    val wl = Workload.compile(Seq(TrendQuery("q", Pattern.seq("A", "B+"), window = w42)))
    val events = boundaryEvents(wl.paneMs, groups = 4, panes = 3) // 24 units, a few KB
    val partitions = 8
    val ds = withConf(
      "spark.sql.adaptive.enabled" -> "true",
      "spark.sql.adaptive.coalescePartitions.enabled" -> "true",
      "spark.sql.shuffle.partitions" -> partitions.toString,
    ) {
      val ds = BatchRunner.paneResults(spark, wl, Dynamic(), BatchRunner.toDS(spark, events))
      assert(ds.collect().map(unitKey).toSet.size == 24)
      ds
    }
    val plan = ds.asInstanceOf[classic.Dataset[PaneResult]].queryExecution.executedPlan match {
      case a: AdaptiveSparkPlanExec => assert(a.isFinalPlan); a.executedPlan
      case other => fail(s"expected an adaptive plan, got ${other.nodeName}")
    }
    // The helper's `collect` also descends into the query stages. The
    // exchange feeding the engine is the one that carries the events.
    object Stages extends AdaptiveSparkPlanHelper
    val byNum = Stages.collect(plan) {
      case s: ShuffleQueryStageExec
          if s.shuffle.shuffleOrigin == REPARTITION_BY_NUM && s.output.exists(_.name == "ts") => s
    }
    assert(byNum.size == 1, s"expected one REPARTITION_BY_NUM exchange feeding the engine:\n$plan")
    assert(byNum.head.shuffle.numPartitions == partitions)
    val coalesced = Stages.collect(plan) { case r: AQEShuffleReadExec if r.child eq byNum.head => r }
    assert(coalesced.isEmpty, s"AQE coalesced the engine stage's exchange:\n$plan")
  }

  test("policies agree through the Spark runner") {
    val qs = Seq(
      TrendQuery("q1", Pattern.seq("A", "B+"), preds = Seq(NumPred("B", "v", ">", 40)), window = w42),
      TrendQuery("q2", Pattern.seq("C", "B+"), window = w42))
    val wl = Workload.compile(qs)
    val events = mkEvents(3, 150, 3, 3, wl.paneMs)
    val ds = BatchRunner.toDS(spark, events)
    def sums(p: repro.hamlet.SharingPolicy) =
      BatchRunner.paneResults(spark, wl, p, ds).collect()
        .map(r => (r.queryId, r.grp, r.pane) -> r.c).toMap
    val never = sums(NeverShare)
    assert(sums(AlwaysShare) == never)
    assert(sums(Dynamic()) == never)
  }

  // ---- DuckDB oracle: trend counting as recursive path counting ------
  private def oracleCheck(q: TrendQuery, seed: Int, n: Int = 60): Unit = {
    val wl = Workload.compile(Seq(q))
    val events = mkEvents(seed, n, 3, 2, wl.paneMs)
    val cq = wl.byId(q.id)
    val sparkDf = {
      import spark.implicits._
      BatchRunner.paneResults(spark, wl, Dynamic(), BatchRunner.toDS(spark, events))
        .filter(_.c > 0.0)
        .select($"grp", $"pane", $"c")
    }
    Oracle.assertEquivalent(
      sparkDf,
      TrendSql.countSql(cq),
      "events" -> TrendSql.eventsDf(spark, events, wl.paneMs, numAttrs = Seq("v")),
      "trans" -> TrendSql.transitionsDf(spark, cq),
    )
  }

  test("oracle: SEQ(A, B+)") { oracleCheck(TrendQuery("q", Pattern.seq("A", "B+"), window = w42), 10) }

  test("oracle: bare Kleene B+") {
    oracleCheck(TrendQuery("q", Pattern.seq("B+"), window = w42), 11, n = 30)
  }

  test("oracle: SEQ(A, B+, C)") {
    oracleCheck(TrendQuery("q", Pattern.seq("A", "B+", "C"), window = w42), 12)
  }

  test("oracle: predicate on the Kleene type") {
    oracleCheck(TrendQuery("q", Pattern.seq("A", "B+"),
      preds = Seq(NumPred("B", "v", ">", 35)), window = w42), 13)
  }

  test("oracle: trailing negation SEQ(A, B+, NOT D)") {
    oracleCheck(TrendQuery("q", Pattern.seq("A", "B+", "!D"), window = w42), 14)
  }

  test("oracle: mid negation SEQ(A, NOT C, B+)") {
    oracleCheck(TrendQuery("q", Pattern.seq("A", "!C", "B+"), window = w42), 15)
  }

  test("oracle: mid negation after Kleene SEQ(A, B+, NOT C, D)") {
    oracleCheck(TrendQuery("q", Pattern.seq("A", "B+", "!C", "D"), window = w42), 16)
  }

  test("oracle: predicates on multiple types") {
    oracleCheck(TrendQuery("q", Pattern.seq("A", "B+"),
      preds = Seq(NumPred("B", "v", ">", 20), NumPred("A", "v", "<", 80)), window = w42), 17)
  }

  for (seed <- 20 until 26) {
    test(s"oracle: randomized multi-pane multi-group run (seed $seed)") {
      oracleCheck(TrendQuery("q", Pattern.seq("A", "B+"),
        preds = if (seed % 2 == 0) Seq(NumPred("B", "v", ">", 50)) else Nil,
        window = w42), seed, n = 80)
    }
  }
}
