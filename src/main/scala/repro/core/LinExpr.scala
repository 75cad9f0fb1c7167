package repro.core

/** A linear expression over snapshot values:
  * `const + Σ coef_i · value(snap_i, channel_i, q)`.
  *
  * Intermediate trend aggregates of events in *shared* graphlets are such
  * expressions (§3.3, data structure (2): "hash table of snapshot
  * coefficients per event" — e.g. `count(b6, Q) = 4x + z`). The expression
  * is query-independent; per-query values are obtained by substituting the
  * per-query snapshot values from the snapshot table.
  *
  * Terms are keyed by a packed (snapshotId, channelIndex) — see
  * [[LinExpr.key]] — because e.g. a sum-channel expression references the
  * count-channel value of a snapshot (`s(e) = Σ s(e') + attr·c(e)`).
  * They are stored as two parallel arrays, one entry per distinct key, in
  * the order the keys were first added. Expressions are immutable; sums of
  * many expressions go through one [[LinExpr.Builder]].
  */
final class LinExpr private (val const: Double, keys: Array[Long], coefs: Array[Double]) {

  def +(o: LinExpr): LinExpr = {
    val b = new LinExpr.Builder
    b.add(this); b.add(o)
    b.result()
  }

  def *(a: Double): LinExpr =
    if (a == 0.0) LinExpr.zero
    else new LinExpr(const * a, keys, coefs.map(_ * a))

  def +(c: Double): LinExpr = new LinExpr(const + c, keys, coefs)

  /** Number of snapshot terms — the `s_p` factor of the cost model. A term
    * whose coefficient became 0 still counts.
    */
  def size: Int = keys.length

  def key(i: Int): Long    = keys(i)
  def coef(i: Int): Double = coefs(i)

  /** The terms as a map from packed key to coefficient. */
  def terms: Map[Long, Double] = keys.iterator.zip(coefs.iterator).toMap

  /** Substitute per-query snapshot values. `lookup(snapId, chIdx)` returns
    * the value of that snapshot channel for the query being evaluated.
    */
  def eval(lookup: (Long, Int) => Double): Double = {
    var acc = const
    var i = 0
    while (i < keys.length) {
      acc += coefs(i) * lookup(LinExpr.snapOf(keys(i)), LinExpr.chanOf(keys(i)))
      i += 1
    }
    acc
  }
}

object LinExpr {
  val zero: LinExpr = const(0.0)

  /** Expression that is exactly one snapshot channel. */
  def ofSnap(snapId: Long, chIdx: Int): LinExpr =
    new LinExpr(0.0, Array(key(snapId, chIdx)), Array(1.0))

  def const(c: Double): LinExpr = new LinExpr(c, Array.emptyLongArray, Array.emptyDoubleArray)

  /** Pack (snapshot id, channel index); engines use < 8 channels. */
  def key(snapId: Long, chIdx: Int): Long = {
    require(chIdx >= 0 && chIdx < 8, s"channel index $chIdx out of range")
    (snapId << 3) | chIdx.toLong
  }
  def snapOf(key: Long): Long = key >>> 3
  def chanOf(key: Long): Int  = (key & 7L).toInt

  /** Mutable sum of expressions, reusable: `result()` returns the sum and
    * empties the builder. Coefficients of a key add up in the order the
    * expressions were added, and keys keep their first-added order, so the
    * result equals adding the inputs one by one with `+` — without one
    * intermediate expression per addend. Keys are found through an
    * open-addressing table over primitive arrays.
    */
  final class Builder {
    private var c = 0.0
    private var n = 0
    private var ks = new Array[Long](8)
    private var cs = new Array[Double](8)
    /** Hash slots holding 1 + the key's position in `ks`; 0 is empty. */
    private var slots = new Array[Int](16)
    /** The slot of each key, so `result()` empties only the used slots. */
    private var pos = new Array[Int](8)

    private def slotOf(k: Long, tbl: Array[Int]): Int = {
      val mask = tbl.length - 1
      var s = ((k * 0x9E3779B97F4A7C15L) >>> 40).toInt & mask
      while (tbl(s) != 0 && ks(tbl(s) - 1) != k) s = (s + 1) & mask
      s
    }

    private def grow(): Unit = {
      ks = java.util.Arrays.copyOf(ks, ks.length * 2)
      cs = java.util.Arrays.copyOf(cs, cs.length * 2)
      pos = java.util.Arrays.copyOf(pos, pos.length * 2)
      val tbl = new Array[Int](slots.length * 2)
      var i = 0
      while (i < n) { val s = slotOf(ks(i), tbl); tbl(s) = i + 1; pos(i) = s; i += 1 }
      slots = tbl
    }

    private def addTerm(k: Long, v: Double): Unit = {
      val s = slotOf(k, slots)
      if (slots(s) != 0) cs(slots(s) - 1) += v
      else {
        ks(n) = k; cs(n) = v; pos(n) = s; n += 1
        slots(s) = n
        if (n == ks.length) grow() // keeps the table at most half full
      }
    }

    def addConst(x: Double): Unit = c += x

    def add(e: LinExpr): Unit = {
      c += e.const
      var i = 0
      while (i < e.size) { addTerm(e.key(i), e.coef(i)); i += 1 }
    }

    /** Add `e * a` (nothing when `a` is 0, like `LinExpr.*`). */
    def addScaled(e: LinExpr, a: Double): Unit = if (a != 0.0) {
      c += e.const * a
      var i = 0
      while (i < e.size) { addTerm(e.key(i), e.coef(i) * a); i += 1 }
    }

    def result(): LinExpr = {
      val out = new LinExpr(c, java.util.Arrays.copyOf(ks, n), java.util.Arrays.copyOf(cs, n))
      var i = 0
      while (i < n) { slots(pos(i)) = 0; i += 1 }
      c = 0.0; n = 0
      out
    }
  }
}
