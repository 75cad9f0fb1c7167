package perfbench

import java.io.File

import scala.collection.mutable

import org.apache.spark.BenchBus
import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}
import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.StreamingQueryProgress

import repro.core.PaneResult
import repro.events.Event
import repro.hamlet.Dynamic
import repro.query.CompiledWorkload
import repro.spark.{BatchRunner, StreamingRunner}

/** Task counters of the jobs that ran while the listener was registered. */
final class TaskCounters extends SparkListener {
  var tasks = 0L
  var runMs = 0L
  var cpuNs = 0L
  var gcMs = 0L
  var shuffleWriteBytes = 0L
  var shuffleReadBytes = 0L
  var fetchWaitMs = 0L
  private val stageRuns = mutable.HashMap.empty[(Int, Int), mutable.ArrayBuffer[Long]]

  override def onTaskEnd(t: SparkListenerTaskEnd): Unit = synchronized {
    val m = t.taskMetrics
    if (m != null) {
      tasks += 1
      runMs += m.executorRunTime
      cpuNs += m.executorCpuTime
      gcMs += m.jvmGCTime
      shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      shuffleReadBytes += m.shuffleReadMetrics.totalBytesRead
      fetchWaitMs += m.shuffleReadMetrics.fetchWaitTime
      stageRuns.getOrElseUpdate((t.stageId, t.stageAttemptId), mutable.ArrayBuffer.empty) += m.executorRunTime
    }
  }

  /** Max ÷ median task run time in the stage with the most run time (the
    * one running the engine).
    */
  def taskSkew: Double = synchronized {
    if (stageRuns.isEmpty) 0.0
    else {
      val runs = stageRuns.values.maxBy(_.sum).sorted
      runs.last.toDouble / math.max(runs(runs.size / 2), 1L)
    }
  }
}

/** Spark layer of the benchmark: the session, the batch path and the
  * streaming path, each driven from outside through the program's public
  * entry points.
  */
object SparkRun {

  // The Spark settings of the test suite's shared session.
  val Master = "local[*]"
  val ShufflePartitions = 64

  def start(work: File): SparkSession =
    SparkSession.builder
      .master(Master)
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(work, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new File(work, "warehouse").getPath)
      .getOrCreate()

  /** Registers task counters around `body` only. */
  def counted[T](spark: SparkSession)(body: => T): (T, TaskCounters) = {
    val sc = spark.sparkContext
    val c = new TaskCounters
    BenchBus.drain(sc)
    sc.addSparkListener(c)
    try {
      val r = body
      BenchBus.drain(sc)
      (r, c)
    } finally sc.removeSparkListener(c)
  }

  def toDS(spark: SparkSession, events: Vector[Event]): Dataset[Event] = {
    val ds = BatchRunner.toDS(spark, events).cache()
    ds.count()
    ds
  }

  private def windowRows(df: DataFrame): Array[(Check.WindowKey, Option[Double])] =
    df.collect().map { r =>
      ((r.getString(0), r.getString(1), r.getLong(2)), if (r.isNullAt(4)) None else Some(r.getDouble(4)))
    }

  /** Events in, window results out: `paneResults` → `windowed` → collect. */
  def batchPass(spark: SparkSession, wl: CompiledWorkload,
                input: Dataset[Event]): (Long, Array[(Check.WindowKey, Option[Double])]) = {
    val t0 = System.nanoTime()
    val rows = windowRows(BatchRunner.windowed(spark, wl, BatchRunner.paneResults(spark, wl, Dynamic(), input)))
    (System.nanoTime() - t0, rows)
  }

  final case class SplitPass(
      wallNs: Long,
      paneNs: Long,
      windowNs: Long,
      panes: Array[PaneResult],
      windows: Array[(Check.WindowKey, Option[Double])],
  )

  /** The batch path in two materialised steps: `paneResults` collected
    * alone, then `windowed` over those pane results.
    */
  def splitPass(spark: SparkSession, wl: CompiledWorkload, input: Dataset[Event],
                tracer: Tracer): SplitPass = {
    import spark.implicits._
    val root = tracer.begin("batch_pass")
    val t0 = System.nanoTime()
    val panes = BatchRunner.paneResults(spark, wl, Dynamic(), input).collect()
    val t1 = System.nanoTime()
    tracer.record("spark.paneResults", "", t0, t1)
    val windows = windowRows(BatchRunner.windowed(spark, wl, spark.createDataset(panes.toSeq)))
    val t2 = System.nanoTime()
    tracer.record("spark.windowed", "", t1, t2)
    tracer.end(root)
    SplitPass(t2 - t0, t1 - t0, t2 - t1, panes, windows)
  }

  final case class StreamPass(
      wallNs: Long,
      emitted: Vector[(Long, PaneResult)],
      sinkNs: Map[Long, Long],
      startNs: Array[Long],
      progress: Array[StreamingQueryProgress],
  )

  /** The events cut into consecutive event-time slices of `sliceMs`. */
  def slices(events: Vector[Event], sliceMs: Long): Vector[Vector[Event]] =
    events.groupBy(_.ts / sliceMs).toVector.sortBy(_._1).map(_._2)

  /** Feeds the slices through a `MemoryStream` into `StreamingRunner.run`,
    * one closed-loop micro-batch per slice, then the flush events.
    */
  def streamPass(spark: SparkSession, wl: CompiledWorkload, parts: Vector[Vector[Event]],
                 flush: Seq[Event], work: File, tracer: Tracer): StreamPass = {
    implicit val sqlCtx = spark.sqlContext
    import spark.implicits._
    val input = MemoryStream[Event]
    val emitted = mutable.ArrayBuffer.empty[(Long, PaneResult)]
    val sinkNs = mutable.HashMap.empty[Long, Long]
    val sink: (Dataset[PaneResult], Long) => Unit = { (ds, batchId) =>
      val rows = ds.collect()
      val t = System.nanoTime()
      emitted.synchronized { rows.foreach(r => emitted += batchId -> r); sinkNs(batchId) = t }
    }
    val ckpt = new File(work, s"checkpoint-${System.nanoTime()}")
    val query = StreamingRunner.run(spark, wl, Dynamic(), input.toDS())
      .writeStream.outputMode("append")
      .option("checkpointLocation", ckpt.getPath)
      .foreachBatch(sink)
      .start()
    val root = tracer.begin("stream_pass")
    val batches = parts :+ flush.toVector
    val starts = new Array[Long](batches.size)
    try {
      batches.indices.foreach { k =>
        starts(k) = System.nanoTime()
        input.addData(batches(k))
        query.processAllAvailable()
        tracer.record("stream.microbatch", Long.box(k.toLong), starts(k), System.nanoTime())
      }
    } finally {
      tracer.end(root)
      query.stop()
      deleteTree(ckpt)
    }
    val wall = emitted.synchronized(sinkNs.values.max) - starts(0)
    emitted.synchronized {
      StreamPass(wall, emitted.toVector, sinkNs.toMap, starts, query.recentProgress)
    }
  }

  def deleteTree(f: File): Unit = {
    Option(f.listFiles).foreach(_.foreach(deleteTree))
    f.delete()
  }

  /** Per-progress sums and peaks of the streaming layer. */
  def progressMetrics(ps: Array[StreamingQueryProgress]): Seq[(String, Double)] = {
    def dur(p: StreamingQueryProgress, k: String): Double =
      Option(p.durationMs.get(k)).map(_.doubleValue).getOrElse(0.0)
    val ops = ps.flatMap(_.stateOperators)
    Seq(
      "add_batch_ms" -> ps.map(dur(_, "addBatch")).sum,
      "wal_commit_ms" -> ps.map(dur(_, "walCommit")).sum,
      "state_commit_ms" -> ops.map(_.commitTimeMs.toDouble).sum,
      "state_rows_total" -> ops.map(_.numRowsTotal.toDouble).maxOption.getOrElse(0.0),
      "state_rows_updated" -> ops.map(_.numRowsUpdated.toDouble).sum,
      "state_memory_bytes" -> ops.map(_.memoryUsedBytes.toDouble).maxOption.getOrElse(0.0),
    )
  }

  def triggerMs(ps: Array[StreamingQueryProgress]): Array[Double] =
    ps.flatMap(p => Option(p.durationMs.get("triggerExecution")).map(_.doubleValue))

  def flushEvents(events: Vector[Event], wl: CompiledWorkload): Seq[Event] =
    StreamingRunner.flushEvents(events.map(_.grp).distinct, events.map(_.ts).max + wl.paneMs * 10)

  def info(spark: SparkSession): Seq[(String, Any)] = Seq(
    "spark_version" -> spark.version,
    "spark_master" -> spark.sparkContext.master,
    "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
    "default_parallelism" -> spark.sparkContext.defaultParallelism,
  )
}
