package perfbench

import scala.collection.mutable

import repro.core.{PaneAgg, PaneResult}
import repro.query.{Agg, CompiledWorkload}

/** Result checking against a reference computed outside the timed region,
  * with the relative tolerance of `Experiments.checkAgreement`.
  */
object Check {

  /** (query, group, pane) */
  type PaneKey = (String, String, Long)
  /** (query, group, window instance) */
  type WindowKey = (String, String, Long)

  val Tolerance = 1e-6
  val ExactLimit: Double = math.pow(2, 53)

  def close(a: Double, b: Double): Boolean =
    a == b || (a.isNaN && b.isNaN) || math.abs(a - b) <= Tolerance * math.max(1.0, math.abs(b))

  def sameAgg(a: PaneAgg, b: PaneAgg): Boolean =
    close(a.c, b.c) && close(a.n, b.n) && close(a.s, b.s) && close(a.mn, b.mn) && close(a.mx, b.mx)

  def sameValue(a: Option[Double], b: Option[Double]): Boolean = (a, b) match {
    case (Some(x), Some(y)) => close(x, y)
    case (None, None)       => true
    case _                  => false
  }

  /** A trend count a `Double` cannot hold exactly. */
  def inexact(c: Double): Boolean = c.isNaN || c.isInfinite || c > ExactLimit

  def agg(r: PaneResult): PaneAgg = PaneAgg(r.c, r.n, r.s, r.mn, r.mx)

  /** Aggregate kind per query, as `BatchRunner.windowed` derives values. */
  private def kind(a: Agg): String = a match {
    case Agg.CountStar => "count"
    case Agg.CountE(_) => "countE"
    case Agg.Sum(_, _) => "sum"
    case Agg.Avg(_, _) => "avg"
    case Agg.Min(_, _) => "min"
    case Agg.Max(_, _) => "max"
  }

  /** Sliding-window values rolled up from pane results: pane p belongs to
    * window instances i with i·slide ≤ p < i·slide + window.
    */
  def rollup(wl: CompiledWorkload, panes: Iterable[(PaneKey, PaneAgg)]): Map[WindowKey, Option[Double]] = {
    val geom = wl.queries.map(q => q.id -> (q.windowPanes.toLong, q.slidePanes.toLong, kind(q.q.agg))).toMap
    val acc = mutable.HashMap.empty[WindowKey, PaneAgg]
    panes.foreach { case ((qid, grp, p), a) =>
      val (wp, sp, _) = geom(qid)
      val lo = math.max(0L, math.ceil((p - wp + 1).toDouble / sp).toLong)
      var wi = lo
      while (wi <= p / sp) {
        val k = (qid, grp, wi)
        acc(k) = acc.get(k).fold(a)(_ + a)
        wi += 1
      }
    }
    acc.iterator.map { case (k @ (qid, _, _), a) =>
      val v = geom(qid)._3 match {
        case "count"  => Some(a.c)
        case "countE" => Some(a.n)
        case "sum"    => Some(a.s)
        case "avg"    => if (a.n != 0.0) Some(a.s / a.n) else None
        case "min"    => if (a.mn != Double.PositiveInfinity) Some(a.mn) else None
        case _        => if (a.mx != Double.NegativeInfinity) Some(a.mx) else None
      }
      k -> v
    }.toMap
  }

  /** Counts checked results and failures. A result fails if it differs
    * from the reference, is missing (lost, e.g. to an exception), is not
    * in the reference, or is emitted more than once.
    */
  final class Tally {
    var attempted = 0L
    var failed    = 0L
    val examples  = mutable.ArrayBuffer.empty[String]

    private def fail(msg: => String): Unit = {
      failed += 1
      if (examples.size < 5) examples += msg
    }

    def compare[K, V](what: String, ref: collection.Map[K, V], out: Iterator[(K, V)],
                      same: (V, V) => Boolean): Unit = {
      val seen = mutable.HashSet.empty[K]
      out.foreach { case (k, v) =>
        attempted += 1
        if (!seen.add(k)) fail(s"$what: $k emitted twice")
        else ref.get(k) match {
          case None    => fail(s"$what: unexpected result $k")
          case Some(r) => if (!same(v, r)) fail(s"$what: $k is $v, reference $r")
        }
      }
      ref.keysIterator.foreach { k =>
        if (!seen(k)) { attempted += 1; fail(s"$what: result $k lost") }
      }
    }

    def panes(what: String, ref: collection.Map[PaneKey, PaneAgg], out: Iterator[(PaneKey, PaneAgg)]): Unit =
      compare(what, ref, out, sameAgg)

    def windows(what: String, ref: collection.Map[WindowKey, Option[Double]],
                out: Iterator[(WindowKey, Option[Double])]): Unit =
      compare(what, ref, out, sameValue)

    /** Every expected result of a step that threw is lost. */
    def lost(what: String, n: Long, e: Throwable): Unit = {
      attempted += n; failed += n
      if (examples.size < 5) examples += s"$what: $n results lost to $e"
    }

    def errorRate: Double = if (attempted == 0) 0.0 else failed.toDouble / attempted
  }
}
