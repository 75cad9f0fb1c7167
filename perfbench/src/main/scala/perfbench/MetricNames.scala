package perfbench

/** The metrics the benchmark reports, with their units. `BENCHMARK.json`
  * lists the same names.
  */
object MetricNames {

  /** Reported by untraced runs (`--trace 0`). */
  val EndToEnd: Seq[(String, String)] = Seq(
    "throughput_eps" -> "ev/s",
    "unit_latency_p50_ms" -> "ms",
    "setup_s" -> "s",
  )

  /** Reported by traced runs (`--trace 1`); a layer a workload does not
    * run reads 0.
    */
  val PerLayer: Seq[(String, String)] = Seq(
    "query.compile_ms" -> "ms",
    "harness.partition_ms" -> "ms",
    "hamlet.executor_ms" -> "ms",
    "hamlet.decide_ms" -> "ms",
    "hamlet.decide_share" -> "ratio",
    "hamlet.eval_ops" -> "count",
    "hamlet.ns_per_eval_op" -> "ns",
    "hamlet.snapshots" -> "count",
    "hamlet.shared_bursts" -> "count",
    "hamlet.total_bursts" -> "count",
    "hamlet.decisions" -> "count",
    "hamlet.plans_examined" -> "count",
    "hamlet.graphlets" -> "count",
    "hamlet.shared_graphlets" -> "count",
    "hamlet.peak_live_terms" -> "count",
    "hamlet.peak_state_bytes" -> "bytes",
    "hamlet.alloc_bytes_per_event" -> "B/ev",
    "hamlet.gc_ms" -> "ms",
    "hamlet.never_share_ms" -> "ms",
    "hamlet.never_share_eval_ops" -> "count",
    "hamlet.always_share_ms" -> "ms",
    "hamlet.always_share_snapshots" -> "count",
    "spark.to_ds_ms" -> "ms",
    "spark.pane_results_ms" -> "ms",
    "spark.windowed_ms" -> "ms",
    "spark.tasks" -> "count",
    "spark.executor_run_ms" -> "ms",
    "spark.executor_cpu_ms" -> "ms",
    "spark.gc_ms" -> "ms",
    "spark.shuffle_write_bytes" -> "bytes",
    "spark.shuffle_read_bytes" -> "bytes",
    "spark.shuffle_fetch_wait_ms" -> "ms",
    "spark.task_skew" -> "ratio",
    "spark.busy_share" -> "ratio",
    "stream.microbatches" -> "count",
    "stream.microbatch_p50_ms" -> "ms",
    "stream.add_batch_ms" -> "ms",
    "stream.wal_commit_ms" -> "ms",
    "stream.state_commit_ms" -> "ms",
    "stream.state_rows_total" -> "count",
    "stream.state_rows_updated" -> "count",
    "stream.state_memory_bytes" -> "bytes",
    "stream.rows_emitted" -> "count",
    "stream.duplicate_panes" -> "count",
    "results.inexact" -> "count",
    "trace.overhead" -> "ratio",
    "trace.unattributed_share" -> "ratio",
  )
}
