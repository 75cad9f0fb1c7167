package perfbench

import repro.events.{Event, StreamGen}
import repro.harness.Workloads
import repro.query.TrendQuery

/** The benchmark's workloads. Each generates its events from the seed
  * with `StreamGen` and hands the program only those events.
  */
sealed trait Path
case object EnginePath extends Path     // BenchHarness.partition → HamletExecutor, one thread
case object BatchPath extends Path      // BatchRunner.toDS → paneResults → windowed
case object StreamingPath extends Path  // MemoryStream → StreamingRunner.run

/** @param streams number of independent streams an untraced engine run
  *                replays; stream i is generated with seed
  *                `seed + i * StreamSeedStride`, so stream 0 gets `--seed`
  *                itself and is the input of every other path
  */
final case class Spec(
    name: String,
    path: Path,
    params: Json.Obj,
    generate: Long => Vector[Event],
    queries: () => Vector[TrendQuery],
    streams: Int = 1,
)

object Inputs {

  /** Fig. 12 Stock setting: 3K ev/min, 75 companies, the volume regime
    * flipping between calm and scattered every 2 min, 60 diverse queries.
    */
  object Stock {
    val Minutes = 4
    val EventsPerMin = 3000
    val Companies = 75
    val RegimeMinutes = 2
    val Queries = 60
    def events(seed: Long): Vector[Event] =
      StreamGen.stockLike(Minutes, EventsPerMin, nCompanies = Companies,
        regimeMinutes = RegimeMinutes, seed = seed)
    def queries(): Vector[TrendQuery] = Workloads.stockW2(Queries)
    def params(extra: (String, Any)*): Json.Obj = Json.Obj(Seq(
      "generator" -> "StreamGen.stockLike", "minutes" -> Minutes, "events_per_min" -> EventsPerMin,
      "companies" -> Companies, "regime_minutes" -> RegimeMinutes,
      "queries" -> s"Workloads.stockW2($Queries)", "policy" -> "Dynamic()") ++ extra: _*)
  }

  val StreamSeedStride = 1_000_000L

  /** Event-time length of one streaming micro-batch. */
  val SliceMs: Long = 30_000L

  /** The workloads `BENCHMARK.json` lists. */
  val all: Seq[Spec] = Seq(
    Spec("stock-spark-batch", BatchPath, Stock.params(), Stock.events, Stock.queries),
    Spec("stock-streaming", StreamingPath, Stock.params("slice_ms" -> SliceMs), Stock.events, Stock.queries),
  )

  /** Runnable by name but not listed: the engine-only replay. On a shared
    * 4-core VM its single-thread timings drifted with the host's CPU speed by
    * more than the 0.25 bound between sets of runs, so it does not gate
    * changes.
    */
  val unlisted: Seq[Spec] = Seq(
    Spec("stock-regime", EnginePath, Stock.params("streams" -> 4), Stock.events, Stock.queries, streams = 4),
  )
}
