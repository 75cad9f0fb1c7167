package repro.hamlet

import scala.collection.mutable

import repro.core.{LinExpr, PaneAgg}
import repro.events.Event
import repro.metrics.Metrics
import repro.query.CompiledQuery

/** Online trend aggregation over one (group, pane) for one set of queries.
  *
  * This single engine implements both execution strategies of the paper:
  *
  *  - **Non-shared** (§3.2, Greta [33]): per-query event graphs whose
  *    intermediate aggregates are plain numbers; each new event walks all
  *    stored predecessor events (Equations 1–3) — O(n) per event per
  *    query, the published cost profile (the `n` term of Eq. 8).
  *  - **Shared** (§3.3, Algorithm 1): one graphlet per burst of the
  *    sharable Kleene type, whose intermediate aggregates are linear
  *    expressions over *snapshots* — created at graphlet level when the
  *    graphlet opens (Definition 8) and at event level whenever per-query
  *    predicates/edge predicates make an event's predecessor set diverge
  *    across the sharing queries (Definition 9).
  *
  * The [[SharingPolicy]] decides per burst which strategy runs and for
  * which subset of queries (§4.2 split/merge, §4.3 query-set choice).
  * Runtime switching needs no state migration, exactly as the paper
  * argues: a *merge* materializes a graphlet-level snapshot whose
  * per-query values consolidate everything processed so far (per-query
  * node walk + closed shared-graphlet sums — the O(k·g·t) merge cost of
  * §4.2); a *split* "comes for free" — per-query graph construction just
  * continues, with closed shared graphlets contributing at aggregate
  * granularity (the paper's "snapshot x is replaced by its value per
  * query").
  *
  * Data layout: the engine numbers the event types of its queries with
  * dense ids (at most [[SetPaneEngine.MaxTypes]]), so type tests are bit
  * tests on `Long` masks. Each query stores its graph nodes as parallel
  * primitive arrays, and the walk is one sequential scan over them.
  *
  * Not thread-safe; instantiate per (group, pane).
  */
final class SetPaneEngine(
    val queries: Vector[CompiledQuery],
    val sharedType: Option[String],
    val channels: Vector[ChannelSpec],
    val policy: SharingPolicy,
    val metrics: Metrics,
) {
  require(channels.nonEmpty && channels.head.name == "C", "channel 0 must be C")
  private val k   = queries.size
  private val nCh = channels.size
  private val ChC = 0

  // ------------------------------------------------------------------
  // Dense type ids
  // ------------------------------------------------------------------
  private val typeNames: Array[String] = queries.flatMap(_.tpl.typeUniverse).distinct.sorted.toArray
  require(typeNames.length <= SetPaneEngine.MaxTypes,
    s"SetPaneEngine supports at most ${SetPaneEngine.MaxTypes} distinct event types per query set " +
    s"(type masks are one Long); got ${typeNames.length} for ${queries.map(_.id).mkString(", ")}")
  private val nTypes = typeNames.length
  private val typeId: Map[String, Int] = typeNames.zipWithIndex.toMap
  private def idOf(t: String): Int = typeId.getOrElse(t, -1)
  private def maskOf(ts: Set[String]): Long = ts.foldLeft(0L)((m, t) => m | (1L << idOf(t)))
  private def flagsOf(ts: Set[String]): Array[Boolean] = typeNames.map(ts.contains)
  private def has(mask: Long, tid: Int): Boolean = ((mask >>> tid) & 1L) != 0L

  private val sharedTid = sharedType.fold(-1)(idOf)
  private val anyEdgePred = queries.exists(_.q.edgePred.isDefined)

  /** Per channel: the type id whose events inject into it (-1 for none),
    * and the attribute summed (null: the channel counts events).
    */
  private val injTid: Array[Int] = channels.map(_.injType.fold(-1)(idOf)).toArray
  private val injAttr: Array[String] = channels.map(_.attr.orNull).toArray
  private def injection(ch: Int, e: Event): Double =
    if (injAttr(ch) == null) 1.0 else e.num.getOrElse(injAttr(ch), 0.0)

  // ------------------------------------------------------------------
  // Per-query state (non-shared graph + shared-close sums + finals)
  // ------------------------------------------------------------------
  private final class QState(val idx: Int, val cq: CompiledQuery) {
    val tpl = cq.tpl
    val hasEdge = cq.q.edgePred.isDefined
    private val edgePred = cq.q.edgePred.orNull

    val isType: Array[Boolean]  = flagsOf(tpl.types)
    val isStart: Array[Boolean] = flagsOf(tpl.startTypes)
    val isEnd: Array[Boolean]   = flagsOf(tpl.endTypes)
    val isTrailingNeg: Array[Boolean] = flagsOf(tpl.trailingNegs)
    /** Predecessor types pt(E, q) of each type: as ids in `predTypes`
      * order (for the per-type sums) and as a bitmask (for the walk).
      */
    val predIds: Array[Array[Int]] = typeNames.map(t => tpl.predTypes(t).toArray.map(idOf))
    val predMask: Array[Long] = typeNames.map(t => maskOf(tpl.predTypes(t)))

    /** Mid-pattern negation barriers: negated type id, from/to type masks. */
    val nBar = tpl.midNegs.size
    val barNeg: Array[Int]   = tpl.midNegs.map(nb => idOf(nb.negType)).toArray
    val barFrom: Array[Long] = tpl.midNegs.map(nb => maskOf(nb.fromTypes)).toArray
    val barTo: Array[Long]   = tpl.midNegs.map(nb => maskOf(nb.toTypes)).toArray
    /** Last matched negative-event id per barrier (kills node edges). */
    val lastNeg: Array[Long] = Array.fill(nBar)(-1L)
    /** Some barrier has matched: the walk must test node edges. */
    var barrierLive = false
    /** Whether events of a type play any role for this query. */
    val hasRole: Array[Boolean] = Array.tabulate(nTypes) { t =>
      isType(t) || isTrailingNeg(t) || barNeg.contains(t)
    }

    val (mmTid, mmAttr) = cq.q.agg match {
      case repro.query.Agg.Min(t, a) => (idOf(t), a)
      case repro.query.Agg.Max(t, a) => (idOf(t), a)
      case _                         => (-1, null: String)
    }
    /** MIN/MAX query: nodes carry trend-scoped min/max. Other queries'
      * min/max stay at ±∞, so they keep none.
      */
    val trackMinMax = mmAttr != null
    require(!trackMinMax || nBar == 0,
      s"${cq.id}: MIN/MAX with mid-pattern negation is unsupported (DESIGN.md)")

    /** Non-shared graph nodes of this pane (plus, for edge-predicate
      * queries, materialized per-query values of shared-processed events —
      * same-type pairs must be filterable per predecessor), as parallel
      * arrays: type id, event id, `nCh` values per node (strided), min/max
      * (MIN/MAX queries only) and the event (edge-predicate queries only).
      */
    var size = 0
    private var nTyp = new Array[Int](16)
    private var nId  = new Array[Long](16)
    private var nVal = new Array[Double](16 * nCh)
    private var nMn  = if (trackMinMax) new Array[Double](16) else null
    private var nMx  = if (trackMinMax) new Array[Double](16) else null
    private var nEv  = if (hasEdge) new Array[Event](16) else null

    def append(e: Event, tid: Int, v: Array[Double], mn: Double, mx: Double): Unit = {
      if (size == nTyp.length) {
        val cap = size * 2
        nTyp = java.util.Arrays.copyOf(nTyp, cap)
        nId  = java.util.Arrays.copyOf(nId, cap)
        nVal = java.util.Arrays.copyOf(nVal, cap * nCh)
        if (trackMinMax) { nMn = java.util.Arrays.copyOf(nMn, cap); nMx = java.util.Arrays.copyOf(nMx, cap) }
        if (hasEdge) nEv = java.util.Arrays.copyOf(nEv, cap)
      }
      nTyp(size) = tid
      nId(size) = e.id
      System.arraycopy(v, 0, nVal, size * nCh, nCh)
      if (trackMinMax) { nMn(size) = mn; nMx(size) = mx }
      if (hasEdge) nEv(size) = e
      size += 1
    }

    /** Σ of this query's values per type id over events of *closed shared
      * graphlets* — the aggregate-granularity stand-in for those events in
      * later walks ("snapshot replaced by its value per query", §4.2).
      * Null: no such event yet.
      */
    val cumShared = new Array[Array[Double]](nTypes)
    /** Σ of this query's values over *all* processed events per type id
      * (nodes + closed shared graphlets) — lets a merge price its
      * graphlet-level snapshot from aggregates instead of re-walking the
      * graph (§4.2: merge cost is linear, not quadratic).
      */
    val cumAll = new Array[Array[Double]](nTypes)
    /** cum tables captured at the last matching mid-pattern negation, at
      * `barrier * nTypes + type`: the part blocked from crossing it.
      */
    val blocked    = new Array[Array[Double]](nBar * nTypes)
    val blockedAll = new Array[Array[Double]](nBar * nTypes)

    def addCum(tbl: Array[Array[Double]], tid: Int, v: Array[Double]): Unit = {
      if (tbl(tid) == null) tbl(tid) = new Array[Double](nCh)
      val tgt = tbl(tid)
      var ch = 0
      while (ch < nCh) { tgt(ch) += v(ch); ch += 1 }
    }

    /** Adds to `v` the `cum` contribution of type `T` to a new `toTid`
      * event, net of negation barriers (the latest negation dominates
      * because the cum tables are non-decreasing).
      */
    def addCumNet(v: Array[Double], cum: Array[Array[Double]], blk: Array[Array[Double]],
                  T: Int, toTid: Int): Unit = {
      val base = cum(T)
      var ch = 0
      while (ch < nCh) {
        var bl = 0.0
        var b = 0
        while (b < nBar) {
          val a = blk(b * nTypes + T)
          if (a != null && has(barFrom(b), T) && has(barTo(b), toTid)) bl = math.max(bl, a(ch))
          b += 1
        }
        v(ch) += (if (base == null) 0.0 else base(ch)) - bl
        ch += 1
      }
    }

    /** Edge validity from stored node `j` to a new event `e` of type `tid`:
      * the same-type edge predicate, then the negation barriers.
      */
    private def edgeOk(j: Int, e: Event, tid: Int): Boolean = {
      if (hasEdge && nTyp(j) == tid && !edgePred(nEv(j), e)) return false
      var b = 0
      while (b < nBar) {
        val ln = lastNeg(b)
        if (ln >= 0 && nId(j) < ln && has(barFrom(b), nTyp(j)) && has(barTo(b), tid)) return false
        b += 1
      }
      true
    }

    /** Whether the edge predicate admits every stored same-type
      * predecessor of `e` (then filtered and shared sums agree).
      */
    def edgeAllPass(e: Event, tid: Int): Boolean = {
      var j = 0
      while (j < size) {
        if (nTyp(j) == tid && !edgePred(nEv(j), e)) return false
        j += 1
      }
      true
    }

    /** Trend-scoped min/max over the predecessors of the last walk. */
    var walkMn = Double.PositiveInfinity
    var walkMx = Double.NegativeInfinity

    /** Predecessor input of a new event of type `tid`: the faithful walk
      * over stored nodes plus the aggregate shared-close sums. Edge-pred
      * queries skip the shared sums of their Kleene type — those events
      * are materialized in the nodes instead.
      */
    def predecessorBase(e: Event, tid: Int): Array[Double] = {
      val mask = predMask(tid)
      val v = new Array[Double](nCh)
      var mn = Double.PositiveInfinity
      var mx = Double.NegativeInfinity
      val n = size
      val typs = nTyp
      val vals = nVal
      metrics.evalOps += n // O(n) per event: the published NS cost
      // Edges need testing only under an edge predicate or a matched
      // negation; otherwise every node of a predecessor type counts.
      val check = hasEdge || barrierLive
      var j = 0
      if (nCh == 1 && !check && !trackMinMax) {
        var c = 0.0
        while (j < n) {
          if (has(mask, typs(j))) c += vals(j)
          j += 1
        }
        v(0) = c
      } else {
        while (j < n) {
          if (has(mask, typs(j)) && (!check || edgeOk(j, e, tid))) {
            val base = j * nCh
            var ch = 0
            while (ch < nCh) { v(ch) += vals(base + ch); ch += 1 }
            if (trackMinMax) { mn = math.min(mn, nMn(j)); mx = math.max(mx, nMx(j)) }
          }
          j += 1
        }
      }
      walkMn = mn
      walkMx = mx
      val pt = predIds(tid)
      var i = 0
      while (i < pt.length) {
        if (!(hasEdge && pt(i) == sharedTid)) addCumNet(v, cumShared, blocked, pt(i), tid)
        i += 1
      }
      v
    }

    /** Index of this query's value channels in the engine layout (-1 when
      * the query's aggregate does not use the channel).
      */
    val nIdx = cq.q.agg match {
      case repro.query.Agg.CountE(_) | repro.query.Agg.Avg(_, _) =>
        channels.indexWhere(_.name == "N")
      case _ => -1
    }
    val sIdx = cq.q.agg match {
      case repro.query.Agg.Sum(_, a) => channels.indexWhere(_.name == s"S:$a")
      case repro.query.Agg.Avg(_, a) => channels.indexWhere(_.name == s"S:$a")
      case _                         => -1
    }

    /** Per-query snapshot value, for `LinExpr.eval` (Definition 8). */
    val snapValue: (Long, Int) => Double = (snap, ch) => snapVals((snap - snapBase).toInt)(idx)(ch)

    val finalAcc = new Array[Double](nCh)
    var finalMin = Double.PositiveInfinity
    var finalMax = Double.NegativeInfinity
    var lastNSTyp = -1
  }

  private val qs: Array[QState] = queries.zipWithIndex.map { case (q, i) => new QState(i, q) }.toArray

  /** Non-shared processing of one matched event (Equations 1–3). */
  private def processNS(st: QState, e: Event, tid: Int): Unit = {
    if (st.lastNSTyp != tid) { st.lastNSTyp = tid; metrics.graphlets += 1 }
    val v = st.predecessorBase(e, tid)
    if (st.isStart(tid)) v(ChC) += 1.0
    var ch = 1
    while (ch < nCh) {
      if (injTid(ch) == tid) v(ch) += injection(ch, e) * v(ChC)
      ch += 1
    }
    var mn = st.walkMn
    var mx = st.walkMx
    if (tid == st.mmTid && v(ChC) > 0) {
      e.num.get(st.mmAttr).foreach { a => mn = math.min(mn, a); mx = math.max(mx, a) }
    }
    if (v(ChC) == 0) { mn = Double.PositiveInfinity; mx = Double.NegativeInfinity }
    st.append(e, tid, v, mn, mx)
    st.addCum(st.cumAll, tid, v)
    if (st.isEnd(tid)) {
      ch = 0
      while (ch < nCh) { st.finalAcc(ch) += v(ch); ch += 1 }
      st.finalMin = math.min(st.finalMin, mn)
      st.finalMax = math.max(st.finalMax, mx)
    }
  }

  // ------------------------------------------------------------------
  // Shared graphlet (linear expressions over snapshots)
  // ------------------------------------------------------------------
  private var shActive  = false
  private var shMembers: Array[Int] = Array.emptyIntArray
  /** Per member: whether the shared type starts its trends. */
  private var shStart: Array[Boolean] = Array.emptyBooleanArray
  private var shStartUniform = true
  private var shInput: Array[LinExpr] = _
  /** Per-channel expressions of the events of the active graphlet. */
  private val shEvents = mutable.ArrayBuffer.empty[Array[LinExpr]]
  /** Σ of the terms of `shEvents` (state-size model). */
  private var shTerms = 0L
  private val sum = new LinExpr.Builder

  /** Adds to `sum` the graphlet-input snapshot plus the expressions of all
    * stored events of channel `ch` — the O(n·s) walk of §3.3's complexity
    * analysis (sharing saves the ×k, not the walk).
    */
  private def sumEventExprs(ch: Int): Unit = {
    sum.add(shInput(ch))
    var ops = 0L
    var j = 0
    while (j < shEvents.size) {
      val x = shEvents(j)(ch)
      sum.add(x)
      ops += x.size
      j += 1
    }
    metrics.evalOps += ops
  }

  /** Same walk, evaluated for one query (divergent events, Definition 9). */
  private def sumEventValues(ch: Int, qIdx: Int): Double = {
    var acc = evalExpr(shInput(ch), qIdx)
    var j = 0
    while (j < shEvents.size) { acc += evalExpr(shEvents(j)(ch), qIdx); j += 1 }
    acc
  }
  /** Snapshot table S: per snapshot (id − `snapBase`) → per-query →
    * per-channel value. Emptied when a graphlet closes, so the ids of the
    * live snapshots are `snapBase` until `nextSnap`.
    */
  private val snapVals = mutable.ArrayBuffer.empty[Array[Array[Double]]]
  private var snapBase = 0L
  private var nextSnap = 0L

  private def newSnapshot(vals: Array[Array[Double]]): Long = {
    if (snapVals.isEmpty) snapBase = nextSnap
    snapVals += vals
    nextSnap += 1
    metrics.snapshotsCreated += 1
    nextSnap - 1
  }

  private def evalExpr(expr: LinExpr, qIdx: Int): Double = {
    metrics.evalOps += expr.size.toLong
    expr.eval(qs(qIdx).snapValue)
  }

  /** Open a shared graphlet for `members`: create the graphlet-level
    * snapshot (Definition 8) valued per query from everything processed so
    * far. This is also exactly the *merge* of §4.2, with its O(k·g·t)
    * node-walk cost.
    */
  private def openShared(members: Vector[Int], tid: Int): Unit = {
    val vals = Array.fill(k)(new Array[Double](nCh))
    members.foreach { i =>
      val st = qs(i)
      // Snapshot value from per-type aggregates (Definition 8 / Eq. 5):
      // merge prices in O(channels × predecessor types) per query instead
      // of re-walking the per-query graphs. Uniformity at merge time makes
      // the unfiltered aggregate the right value for edge-pred queries too.
      val pt = st.predIds(tid)
      val v = new Array[Double](nCh)
      pt.foreach(T => st.addCumNet(v, st.cumAll, st.blockedAll, T, tid))
      vals(i) = v
      metrics.evalOps += pt.length.toLong * nCh
    }
    val snap = newSnapshot(vals)
    shInput = Array.tabulate(nCh)(ch => LinExpr.ofSnap(snap, ch))
    shEvents.clear()
    shTerms = 0L
    shMembers = members.toArray
    shStart = shMembers.map(i => qs(i).isStart(tid))
    shStartUniform = shStart.forall(_ == shStart(0))
    shActive = true
    metrics.graphlets += 1
    metrics.sharedGraphlets += 1
  }

  /** Close the active shared graphlet: evaluate the per-query sums of its
    * events, fold them into the shared-close sums and final accumulators,
    * and drop the snapshot table (no live expression references it
    * anymore). After this, per-query non-shared graph construction simply
    * continues — the *split* of §4.2.
    */
  private def closeShared(): Unit = if (shActive) {
    shMembers.foreach { i =>
      val st = qs(i)
      val isEnd = st.isEnd(sharedTid)
      val v = new Array[Double](nCh)
      var ch = 0
      while (ch < nCh) {
        var acc = 0.0
        var j = 0
        while (j < shEvents.size) { acc += evalExpr(shEvents(j)(ch), i); j += 1 }
        v(ch) = acc
        if (isEnd) st.finalAcc(ch) += v(ch)
        ch += 1
      }
      // Edge-pred members already materialized each shared event into
      // their graph (nodes + cumAll); adding the graphlet sum again would
      // double count.
      if (!st.hasEdge) {
        st.addCum(st.cumShared, sharedTid, v)
        st.addCum(st.cumAll, sharedTid, v)
      }
    }
    shActive = false
    shEvents.clear()
    shTerms = 0L
    snapVals.clear()
  }

  /** Shared processing of one event (Algorithm 1, lines 16–21). */
  private def processShared(e: Event, tid: Int): Unit = {
    val nm = shMembers.length
    val matched = new Array[Boolean](nm)
    var nMatched = 0
    var mi = 0
    while (mi < nm) {
      if (qs(shMembers(mi)).cq.q.matches(e)) { matched(mi) = true; nMatched += 1 }
      mi += 1
    }
    if (nMatched == 0) return // matched by no sharing query: skip
    // Edge predicates filter every same-type adjacent pair; sharing stays
    // uniform only while every edge-predicate member admits every stored
    // predecessor (then the filtered sum equals the shared one).
    val edgeUniform = !anyEdgePred || shMembers.indices.forall { mi =>
      val st = qs(shMembers(mi))
      !st.hasEdge || !matched(mi) || st.edgeAllPass(e, tid)
    }
    val uniform = nMatched == nm && shStartUniform && edgeUniform

    val exprs = new Array[LinExpr](nCh)
    if (uniform) {
      sumEventExprs(ChC)
      sum.addConst(if (shStart(0)) 1.0 else 0.0)
      exprs(ChC) = sum.result()
      var ch = 1
      while (ch < nCh) {
        sumEventExprs(ch)
        if (injTid(ch) == tid) sum.addScaled(exprs(ChC), injection(ch, e))
        exprs(ch) = sum.result()
        ch += 1
      }
    } else {
      // Event-level snapshot (Definition 9): per-query values computed
      // eagerly, after which propagation continues shared.
      val vals = Array.fill(k)(new Array[Double](nCh))
      mi = 0
      while (mi < nm) {
        if (matched(mi)) {
          val i = shMembers(mi)
          val st = qs(i)
          val base =
            if (st.hasEdge) st.predecessorBase(e, tid) // filtered predecessors via the per-query graph walk
            else Array.tabulate(nCh)(ch => sumEventValues(ch, i))
          val c = base(ChC) + (if (shStart(mi)) 1.0 else 0.0)
          vals(i)(ChC) = c
          var ch = 1
          while (ch < nCh) {
            val inj = if (injTid(ch) == tid) injection(ch, e) else 0.0
            vals(i)(ch) = base(ch) + inj * c
            ch += 1
          }
        } // else: unmatched -> all-zero values (event invisible to i)
        mi += 1
      }
      val snap = newSnapshot(vals)
      var ch = 0
      while (ch < nCh) { exprs(ch) = LinExpr.ofSnap(snap, ch); ch += 1 }
    }
    shEvents += exprs
    exprs.foreach(x => shTerms += x.size)
    // Edge-predicate members materialize their per-query value of this
    // event into their graph (predecessor base for later filtered walks).
    if (anyEdgePred) {
      mi = 0
      while (mi < nm) {
        val i = shMembers(mi)
        val st = qs(i)
        if (st.hasEdge && matched(mi)) {
          val v = Array.tabulate(nCh)(ch => evalExpr(exprs(ch), i))
          st.append(e, tid, v, Double.PositiveInfinity, Double.NegativeInfinity)
          st.addCum(st.cumAll, tid, v)
        }
        mi += 1
      }
    }
    metrics.observeTerms(exprs(ChC).size.toLong)
  }

  // ------------------------------------------------------------------
  // Pane processing: burst segmentation, per-burst decisions, flush
  // ------------------------------------------------------------------
  private var nEvents = 0L

  /** Rough state-size model (paper's peak-memory metric; see Metrics). */
  private def currentBytes: Long = {
    var b = 0L
    qs.foreach { st =>
      val cumEntries = st.cumShared.count(_ != null) + st.blocked.count(_ != null)
      b += cumEntries.toLong * nCh * 8 + nCh * 8L
      b += st.size.toLong * (48L + nCh * 8L)
    }
    b += shEvents.size * 48L + shTerms * 16L
    b += snapVals.size.toLong * k * nCh * 8L
    b
  }

  private def processBurst(tid: Int, evs: collection.IndexedSeq[Event]): Unit = {
    // Burst boundary: graphlets of all other types become inactive
    // (Definitions 6 and 10).
    if (shActive && tid != sharedTid) closeShared()

    if (tid == sharedTid && k > 1) {
      metrics.totalBursts += 1
      val t0 = System.nanoTime()
      val dec = SharingOptimizer.decide(policy, evs, queries, typeNames(tid), nEvents)
      metrics.decisions += 1
      metrics.decisionNanos += System.nanoTime() - t0
      metrics.plansExamined += dec.plansExamined
      if (dec.share) {
        metrics.sharedBursts += 1
        if (shActive) closeShared() // defensive: membership is per burst
        openShared(dec.sharedIdx, tid)
        val excluded = qs.filter(st => st.isType(tid) && !dec.sharedIdx.contains(st.idx))
        evs.foreach { e =>
          processShared(e, tid)
          excluded.foreach(st => if (st.cq.q.matches(e)) processNS(st, e, tid))
          nEvents += 1; metrics.events += 1
        }
      } else {
        if (shActive) closeShared()
        val members = qs.filter(_.isType(tid))
        evs.foreach { e =>
          members.foreach(st => if (st.cq.q.matches(e)) processNS(st, e, tid))
          nEvents += 1; metrics.events += 1
        }
      }
    } else {
      val roles = qs.filter(_.hasRole(tid))
      evs.foreach { e =>
        roles.foreach { st =>
          if (st.cq.q.matches(e)) {
            if (st.isType(tid)) processNS(st, e, tid)
            // Negation roles of this event for this query:
            if (st.isTrailingNeg(tid)) {
              // Pattern-final NOT: all trends ended so far are invalidated.
              java.util.Arrays.fill(st.finalAcc, 0.0)
              st.finalMin = Double.PositiveInfinity
              st.finalMax = Double.NegativeInfinity
            }
            var b = 0
            while (b < st.nBar) {
              if (st.barNeg(b) == tid) {
                st.lastNeg(b) = e.id
                st.barrierLive = st.lastNeg.exists(_ >= 0)
                var T = 0
                while (T < nTypes) {
                  if (has(st.barFrom(b), T)) {
                    st.blocked(b * nTypes + T) =
                      if (st.cumShared(T) == null) new Array[Double](nCh) else st.cumShared(T).clone()
                    st.blockedAll(b * nTypes + T) =
                      if (st.cumAll(T) == null) new Array[Double](nCh) else st.cumAll(T).clone()
                  }
                  T += 1
                }
              }
              b += 1
            }
          }
        }
        nEvents += 1; metrics.events += 1
      }
    }
    metrics.observeBytes(currentBytes)
  }

  /** Process one pane's events (time-ordered) and return per-query
    * aggregates. Events whose type no query references are ignored and do
    * not end bursts.
    */
  def processPane(events: IterableOnce[Event]): Map[String, PaneAgg] = {
    val t0 = System.nanoTime()
    var curTid = -1
    val cur = mutable.ArrayBuffer.empty[Event]
    events.iterator.foreach { e =>
      val tid = idOf(e.typ)
      if (tid >= 0) {
        if (curTid >= 0 && tid != curTid) {
          processBurst(curTid, cur)
          cur.clear()
        }
        curTid = tid
        cur += e
      }
    }
    if (curTid >= 0) processBurst(curTid, cur)
    // Pane end: every graphlet completes (Definition 10).
    closeShared()
    metrics.observeBytes(currentBytes)
    metrics.wallNanos += System.nanoTime() - t0
    qs.iterator.map { st =>
      st.cq.id -> PaneAgg(
        c = st.finalAcc(ChC),
        n = if (st.nIdx >= 0) st.finalAcc(st.nIdx) else 0.0,
        s = if (st.sIdx >= 0) st.finalAcc(st.sIdx) else 0.0,
        mn = st.finalMin,
        mx = st.finalMax,
      )
    }.toMap
  }
}

object SetPaneEngine {
  /** Most distinct event types one engine handles: type sets are `Long`
    * bitmasks, and on the JVM `1L << 64` is `1L << 0`.
    */
  val MaxTypes = 64
}
