package repro.hamlet

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

import repro.core.PaneAgg
import repro.events.Event
import repro.metrics.Metrics
import repro.query._
import repro.testkit.{Engines, TestGen}

/** Each branch of the predecessor walk over the flat per-query node
  * arrays, checked against brute force: the plain scans are covered by
  * [[HamletEngineSpec]]; these cover the edge-checked scan in the states
  * the other specs do not reach, and the type-mask capacity.
  */
class WalkBranchSpec extends AnyFunSuite {

  private def ev(id: Long, typ: String, v: Double = 0.0): Event =
    Event(id, id * 10, typ, "g", Map("v" -> v))

  private val policies: Seq[SharingPolicy] = Seq(NeverShare, AlwaysShare, Dynamic(Eq8Model), Dynamic(Eq7Model))

  private val rising = Some((a: Event, b: Event) => b.num("v") >= a.num("v"))

  test("edge-predicate member materialized in a shared burst, split off, then re-merged in one pane") {
    val qs = Seq(
      TrendQuery("e", Pattern.seq("A", "B+"), window = QueryWindow(4, 2), edgePred = rising),
      TrendQuery("p", Pattern.seq("A", "B+"), preds = Seq(NumPred("B", "v", ">", 50)),
        window = QueryWindow(4, 2)),
      TrendQuery("c", Pattern.seq("A", "B+"), window = QueryWindow(4, 2)))
    val rnd = new Random(21)
    var id = 0L
    def next(typ: String, v: Double): Event = { id += 1; ev(id, typ, v) }
    // Clean burst (every query matches; shared), scattered burst (the
    // predicate splits the set; not shared), clean burst again (merged).
    val clean1 = (1 to 4).map(i => next("B", 50 + 10 * i - (if (i == 3) 25 else 0)))
    val a2 = next("A", 0)
    val scattered = (1 to 10).map(_ => next("B", rnd.nextInt(100).toDouble))
    val a3 = next("A", 0)
    val clean2 = (1 to 4).map(i => next("B", 60 + 5 * i))
    val events = (ev(0, "A") +: clean1) ++ (a2 +: scattered) ++ (a3 +: clean2)

    // The decisions the engine takes per burst (events so far: 1, 6, 17).
    val set = Engines.compile(qs).sets.head.queries
    val eIdx = set.indexWhere(_.id == "e")
    val decisions = Seq(clean1 -> 1L, scattered -> 6L, clean2 -> 17L).map { case (b, n) =>
      SharingOptimizer.decide(Dynamic(Eq8Model), b.toVector, set, "B", n)
    }
    assert(decisions.map(d => d.share && d.sharedIdx.contains(eIdx)) == Seq(true, false, true))
    // b3 (v=55) breaks the rising chain: e's filtered sum diverges, so it
    // is materialized through an event-level snapshot.
    assert(!rising.get(clean1(1), clean1(2)))

    val m = new Metrics
    val expected = Engines.brute(qs, events)
    Engines.assertSame(Engines.hamlet(qs, events, Dynamic(Eq8Model), m), expected, "dynamic")
    assert(m.sharedBursts == 2 && m.totalBursts == 3 && m.snapshotsCreated > 2)
    policies.foreach(p => Engines.assertSame(Engines.hamlet(qs, events, p), expected, s"$p"))
  }

  for (seed <- 0 until 10) {
    test(s"mid-negation barrier over a SUM/AVG set (3 channels) agrees with brute force (seed $seed)") {
      val rnd = new Random(5000 + seed)
      val events = TestGen.stream(rnd, 16, types = Vector("A", "B", "C", "D"))
      val qs = Seq(
        TrendQuery("s", Pattern.seq("A", "!C", "B+"), Agg.Sum("B", "v"), window = QueryWindow(4, 2)),
        TrendQuery("a", Pattern.seq("D", "B+"), Agg.Avg("B", "v"),
          preds = Seq(NumPred("B", "v", "<", 70)), window = QueryWindow(4, 2)))
      val expected = Engines.brute(qs, events)
      policies.foreach(p => Engines.assertSame(Engines.hamlet(qs, events, p), expected, s"seed=$seed $p"))
    }
  }

  for (seed <- 0 until 10) {
    test(s"MIN/MAX on the Kleene type with predicates and an edge predicate agree with brute force (seed $seed)") {
      val rnd = new Random(6000 + seed)
      val events = TestGen.stream(rnd, 16, types = Vector("A", "B", "C"))
      val qs = Seq(
        TrendQuery("mx", Pattern.seq("A", "B+", "C"), Agg.Max("B", "v"), window = QueryWindow(4, 2)),
        TrendQuery("mn", Pattern.seq("A", "B+"), Agg.Min("B", "v"),
          preds = Seq(NumPred("B", "v", ">", 20)), window = QueryWindow(4, 2)),
        TrendQuery("mxe", Pattern.seq("A", "B+"), Agg.Max("B", "v"), window = QueryWindow(4, 2),
          edgePred = rising))
      val got = Engines.hamlet(qs, events, Dynamic())
      val want = Engines.brute(qs, events)
      Engines.assertSame(got, want, s"seed=$seed")
      // assertSame's relative tolerance admits any value next to ±∞, and
      // min/max are exact: compare each query's own aggregate exactly.
      qs.foreach { q =>
        val pick = (a: PaneAgg) => if (q.agg.isInstanceOf[Agg.Max]) a.mx else a.mn
        assert(pick(got(q.id)) == pick(want(q.id)), s"seed=$seed ${q.id}")
      }
    }
  }

  private def seqOfTypes(n: Int): TrendQuery =
    TrendQuery(s"t$n", PSeq((0 until n).toList.map(i => PEvent(s"T$i"))), window = QueryWindow(4, 2))

  test(s"an engine handles ${SetPaneEngine.MaxTypes} event types (the last one at bit 63)") {
    val q = seqOfTypes(SetPaneEngine.MaxTypes)
    val events = (0 until SetPaneEngine.MaxTypes).map(i => ev(i.toLong, s"T$i")) :+ ev(64, "T63") :+ ev(65, "T62")
    val got = Engines.hamlet(Seq(q), events, NeverShare)
    assert(got(q.id).c == 2.0)
    Engines.assertSame(got, Engines.brute(Seq(q), events))
  }

  test(s"an engine over more than ${SetPaneEngine.MaxTypes} event types is rejected at construction") {
    val cq = Engines.compile(Seq(seqOfTypes(SetPaneEngine.MaxTypes + 1))).queries.head
    val err = intercept[IllegalArgumentException] {
      new SetPaneEngine(Vector(cq), None, ChannelSpec.forQueries(Seq(cq)), NeverShare, new Metrics)
    }
    assert(err.getMessage.contains(s"at most ${SetPaneEngine.MaxTypes} distinct event types"))
    assert(err.getMessage.contains("got 65"))
  }
}
