package perfbench

import repro.events.StreamGen
import repro.hamlet.{Dynamic, HamletExecutor, NeverShare}
import repro.harness.Workloads
import repro.query.Workload

/** Checks the benchmark itself on a small Stock input: its result check
  * catches a perturbed, lost or duplicated result; exact counters repeat
  * across passes of one seed; a second seed checks clean; and
  * `BENCHMARK.json` names the workloads and metrics the benchmark reports.
  * Exits non-zero if any check fails.
  */
object SelfCheck {
  def main(args: Array[String]): Unit = {
    val opt = args.grouped(2).collect { case Array(k, v) => k.drop(2) -> v }.toMap
    var ok = true
    def check(name: String, cond: Boolean, detail: => String = ""): Unit = {
      println(s"${if (cond) "ok  " else "FAIL"} $name${if (cond) "" else s": $detail"}")
      ok &&= cond
    }
    val off = new Tracer(false)
    val wl = Workload.compile(Workloads.stockW2(20))
    def pass(seed: Long, dynamic: Boolean) = EngineRun.pass(
      new HamletExecutor(wl, if (dynamic) Dynamic() else NeverShare),
      StreamGen.stockLike(4, 1500, nCompanies = 25, seed = seed), wl.paneMs, off, "pass")

    val ref = pass(1, dynamic = false).results.toMap
    val a = pass(1, dynamic = true)
    val b = pass(1, dynamic = true)
    def tallied(out: Iterator[(Check.PaneKey, repro.core.PaneAgg)]) = {
      val t = new Check.Tally; t.panes("self-check", ref, out); t
    }
    val clean = tallied(a.results)
    check("dynamic pass equals the never-share reference",
      clean.failed == 0 && clean.attempted == ref.size, clean.examples.mkString("; "))

    val (k0, v0) = a.results.maxBy(_._2.c)
    val bumped = v0.copy(c = v0.c + math.max(1.0, v0.c * 1e-3))
    val perturbed = tallied(a.results.map { case (k, v) => if (k == k0) (k, bumped) else (k, v) })
    check("one perturbed count is one failure", perturbed.failed == 1, s"failed=${perturbed.failed}")
    val lost = tallied(a.results.filter(_._1 != k0))
    check("one lost result is one failure", lost.failed == 1, s"failed=${lost.failed}")
    val dup = tallied(a.results ++ Iterator(k0 -> v0))
    check("one duplicated result is one failure", dup.failed == 1, s"failed=${dup.failed}")

    val refWin = Check.rollup(wl, ref)
    val win = new Check.Tally
    win.windows("self-check", refWin,
      Check.rollup(wl, a.results.map { case (k, v) => if (k == k0) (k, bumped) else (k, v) }.toSeq).iterator)
    check("a perturbed pane count fails the windows holding it",
      win.failed >= 1 && win.failed <= wl.byId(k0._1).windowPanes, s"failed=${win.failed}")

    check("exact counters repeat across passes of one seed",
      EngineRun.exactCounters(a.metrics) == EngineRun.exactCounters(b.metrics) && a.inexact == b.inexact,
      s"${EngineRun.exactCounters(a.metrics)} vs ${EngineRun.exactCounters(b.metrics)}")
    check("inexact results are counted on the Stock input", a.inexact > 0, "none found")

    val ref2 = pass(2, dynamic = false).results.toMap
    val t2 = new Check.Tally
    t2.panes("seed 2", ref2, pass(2, dynamic = true).results)
    check("a second seed checks with error rate 0", t2.failed == 0 && t2.attempted > 0, t2.examples.mkString("; "))

    def pairs(s: String) = s.split(",").toSeq.filter(_.nonEmpty)
    def ours(ms: Seq[(String, String)]) = ms.map { case (n, u) => s"$n:$u" }
    check("BENCHMARK.json lists the workloads", pairs(opt("workloads")) == Inputs.all.map(_.name),
      opt("workloads"))
    check("BENCHMARK.json lists the end-to-end metrics", pairs(opt("end-to-end")) == ours(MetricNames.EndToEnd),
      opt("end-to-end"))
    check("BENCHMARK.json lists the per-layer metrics", pairs(opt("per-layer")) == ours(MetricNames.PerLayer),
      opt("per-layer"))
    sys.exit(if (ok) 0 else 1)
  }
}
