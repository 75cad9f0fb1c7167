package repro.spark

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._

import repro.core.PaneResult
import repro.events.Event
import repro.hamlet.{HamletExecutor, SharingPolicy}
import repro.metrics.Metrics
import repro.query.{Agg, CompiledWorkload}

/** Batch execution of a compiled workload on Spark.
  *
  * The stream is partitioned by the grouping attribute and then into panes
  * (§3.1); trends are pane-scoped (DESIGN.md), so every (group, pane) unit
  * is independent work for the [[HamletExecutor]]. Window roll-up from pane
  * results is plain DataFrame aggregation.
  */
object BatchRunner {

  def toDS(spark: SparkSession, events: Seq[Event]): Dataset[Event] = {
    import spark.implicits._
    spark.createDataset(events)
  }

  /** Per-(query, group, pane) aggregate channels.
    *
    * The events are hash-partitioned on the unit key (grp, pane) into
    * `spark.sql.shuffle.partitions` partitions, sorted within each by
    * (grp, ts, id), and each run of one unit goes through the executor.
    * The partition count is explicit on purpose: AQE sizes partitions by
    * shuffle bytes and would coalesce a small event stream into one task,
    * but engine cost grows faster than unit size (O(n) per event), and AQE
    * leaves a repartition with an explicit count alone.
    *
    * The key's pane is integral division (`ts div paneMs`), exactly
    * [[Event.pane]]; a floating division could put an event just before a
    * pane boundary in the next pane's bucket and split its unit in two.
    *
    * The result rows, in turn, are few and cost the same per row, so they
    * are hash-partitioned on (queryId, grp) into one partition per core.
    * Otherwise a consumer such as [[windowed]] would run its per-task
    * set-up (aggregation map, shuffle files) once per engine partition; the
    * key also satisfies its grouping, so it adds no exchange of its own.
    */
  def paneResults(
      spark: SparkSession,
      wl: CompiledWorkload,
      policy: SharingPolicy,
      events: Dataset[Event],
  ): Dataset[PaneResult] = {
    import spark.implicits._
    val exec = new HamletExecutor(wl, policy)
    val paneMs = wl.paneMs
    val partitions = spark.conf.get("spark.sql.shuffle.partitions").toInt
    events
      .repartition(partitions, $"grp", expr(s"ts div $paneMs"))
      .sortWithinPartitions($"grp", $"ts", $"id")
      .mapPartitions { it =>
        // Sorted by (grp, ts, id) and pane is monotone in ts, so every
        // unit is one consecutive run.
        val metrics = new Metrics
        val units = it.buffered
        Iterator.continually(units).takeWhile(_.hasNext).flatMap { _ =>
          val grp = units.head.grp
          val pane = units.head.pane(paneMs)
          val evs = Vector.newBuilder[Event]
          while (units.hasNext && units.head.grp == grp && units.head.pane(paneMs) == pane)
            evs += units.next()
          exec.processPane(grp, pane, evs.result(), metrics)
        }
      }
      .repartition(spark.sparkContext.defaultParallelism, $"queryId", $"grp")
  }

  /** Roll pane results up into sliding-window results per query
    * (WITHIN/SLIDE): pane p belongs to window instances i with
    * i·slide ≤ p < i·slide + window; a window instance's value combines
    * its panes' channels (sums for c/n/s, min/mn, max/mx) and the final
    * value is derived per the query's aggregate.
    *
    * Output columns: queryId, grp, windowInstance, windowEndPane, value.
    */
  def windowed(spark: SparkSession, wl: CompiledWorkload, panes: Dataset[PaneResult]): DataFrame = {
    import spark.implicits._
    val geom = wl.queries
      .map { q =>
        val kind = q.q.agg match {
          case Agg.CountStar => "count"
          case Agg.CountE(_) => "countE"
          case Agg.Sum(_, _) => "sum"
          case Agg.Avg(_, _) => "avg"
          case Agg.Min(_, _) => "min"
          case Agg.Max(_, _) => "max"
        }
        (q.id, q.windowPanes, q.slidePanes, kind)
      }
      .toDF("queryId", "wp", "sp", "kind")

    panes.toDF()
      .join(broadcast(geom), "queryId")
      .withColumn("wi",
        explode(sequence(
          greatest(lit(0L), ceil(($"pane" - $"wp" + 1).cast("double") / $"sp").cast("long")),
          floor($"pane".cast("double") / $"sp").cast("long"))))
      .groupBy($"queryId", $"grp", $"wi", $"kind", $"wp", $"sp")
      .agg(
        sum($"c").as("c"), sum($"n").as("n"), sum($"s").as("sm"),
        min($"mn").as("mn"), max($"mx").as("mx"))
      .select(
        $"queryId", $"grp",
        $"wi".as("windowInstance"),
        ($"wi" * $"sp" + $"wp").as("windowEndPane"),
        when($"kind" === "count", $"c")
          .when($"kind" === "countE", $"n")
          .when($"kind" === "sum", $"sm")
          .when($"kind" === "avg", when($"n" =!= 0.0, $"sm" / $"n"))
          .when($"kind" === "min", when($"mn" =!= lit(Double.PositiveInfinity), $"mn"))
          .when($"kind" === "max", when($"mx" =!= lit(Double.NegativeInfinity), $"mx"))
          .as("value"))
  }
}
