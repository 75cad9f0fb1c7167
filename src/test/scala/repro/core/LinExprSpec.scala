package repro.core

import org.scalatest.funsuite.AnyFunSuite

class LinExprSpec extends AnyFunSuite {

  private val vals = Map(
    (7L, 0) -> 2.0, (7L, 1) -> 5.0,
    (9L, 0) -> 3.0, (9L, 1) -> 1.0,
  )
  private def look(s: Long, c: Int): Double = vals.getOrElse((s, c), 0.0)

  test("zero evaluates to 0") { assert(LinExpr.zero.eval(look) == 0.0) }

  test("constant expression") { assert(LinExpr.const(4.5).eval(look) == 4.5) }

  test("single snapshot term") {
    assert(LinExpr.ofSnap(7, 0).eval(look) == 2.0)
    assert(LinExpr.ofSnap(7, 1).eval(look) == 5.0)
  }

  test("addition merges coefficients") {
    val e = LinExpr.ofSnap(7, 0) + LinExpr.ofSnap(7, 0) + LinExpr.ofSnap(9, 0)
    assert(e.terms(LinExpr.key(7, 0)) == 2.0)
    assert(e.eval(look) == 2 * 2.0 + 3.0)
    assert(e.size == 2)
  }

  test("scalar multiplication scales const and terms") {
    val e = (LinExpr.ofSnap(7, 0) + 1.0) * 3.0
    assert(e.eval(look) == 3 * (2.0 + 1.0))
  }

  test("multiplication by zero collapses to the empty expression") {
    val e = (LinExpr.ofSnap(7, 0) + 5.0) * 0.0
    assert(e.size == 0 && e.const == 0.0)
  }

  test("adding a scalar only touches the constant") {
    val e = LinExpr.ofSnap(9, 1) + 2.5
    assert(e.const == 2.5 && e.size == 1)
    assert(e.eval(look) == 3.5)
  }

  test("mixed-channel expression (count(b6) = 4x + z shape)") {
    val e = LinExpr.ofSnap(7, 0) * 4.0 + LinExpr.ofSnap(9, 0)
    assert(e.eval(look) == 4 * 2.0 + 3.0)
  }

  test("key packs and unpacks snapshot id and channel") {
    val k = LinExpr.key(123456789L, 5)
    assert(LinExpr.snapOf(k) == 123456789L)
    assert(LinExpr.chanOf(k) == 5)
  }

  test("key rejects out-of-range channels") {
    intercept[IllegalArgumentException](LinExpr.key(1, 8))
  }

  test("addition is commutative and associative on evaluation") {
    val a = LinExpr.ofSnap(7, 0) * 2.0
    val b = LinExpr.ofSnap(9, 1) + 1.0
    val c = LinExpr.const(3.0)
    assert(((a + b) + c).eval(look) == (a + (b + c)).eval(look))
    assert((a + b).eval(look) == (b + a).eval(look))
  }

  // --- Builder: one accumulator for a sum of many expressions ----------

  /** The representation before the builder: terms in an immutable map,
    * each addition a left fold of `updated` over the addend's terms.
    */
  private def mapFold(xs: Seq[LinExpr]): (Double, Map[Long, Double]) =
    xs.foldLeft((0.0, Map.empty[Long, Double])) { case ((c, m), x) =>
      (c + x.const, x.terms.foldLeft(m) { case (mm, (k, v)) => mm.updated(k, mm.getOrElse(k, 0.0) + v) })
    }

  private def mapEval(c: Double, m: Map[Long, Double]): Double =
    c + m.map { case (k, v) => v * look(LinExpr.snapOf(k), LinExpr.chanOf(k)) }.sum

  private def built(xs: Seq[LinExpr]): LinExpr = {
    val b = new LinExpr.Builder
    xs.foreach(b.add)
    b.result()
  }

  test("builder sums repeated keys across many expressions like the map fold") {
    val rnd = new scala.util.Random(1)
    val xs = (0 until 300).map { _ =>
      val snap = if (rnd.nextBoolean()) 7L else 9L
      LinExpr.ofSnap(snap, rnd.nextInt(2)) * (1 + rnd.nextInt(5)).toDouble + rnd.nextInt(3).toDouble
    }
    val (c, m) = mapFold(xs)
    val e = built(xs)
    assert(e.size == m.size && e.size == 4)
    assert(e.terms == m && e.const == c)
    assert(e.eval(look) == mapEval(c, m))
  }

  test("builder keeps a term whose coefficient sums to zero (it counts in size)") {
    val xs = Seq(LinExpr.ofSnap(7, 0) * 2.0, LinExpr.ofSnap(9, 1), LinExpr.ofSnap(7, 0) * -2.0)
    val e = built(xs)
    assert(e.size == 2 && mapFold(xs)._2.size == 2)
    assert(e.terms(LinExpr.key(7, 0)) == 0.0)
    assert(e.eval(look) == 1.0)
    assert((LinExpr.ofSnap(7, 0) * 2.0 + LinExpr.ofSnap(7, 0) * -2.0).size == 1)
  }

  test("builder accumulates constants, scaled addends and explicit constants") {
    val b = new LinExpr.Builder
    b.add(LinExpr.const(1.5))
    b.addScaled(LinExpr.ofSnap(7, 0) + 2.0, 3.0) // 3·x + 6
    b.addScaled(LinExpr.ofSnap(9, 0) + 100.0, 0.0) // no-op, like * 0.0
    b.addConst(0.25)
    val e = b.result()
    assert(e.const == 1.5 + 6.0 + 0.25 && e.size == 1)
    assert(e.eval(look) == 7.75 + 3 * 2.0)
  }

  test("builder is empty again after result, and reusable") {
    val b = new LinExpr.Builder
    (0 until 50).foreach(i => b.add(LinExpr.ofSnap(i.toLong, i % 8)))
    assert(b.result().size == 50)
    b.add(LinExpr.ofSnap(3, 3) + 1.0)
    val e = b.result()
    assert(e.size == 1 && e.const == 1.0 && e.terms == Map(LinExpr.key(3, 3) -> 1.0))
    assert(b.result().size == 0)
  }

  for (seed <- 0 until 5) {
    test(s"builder size and eval equal the map fold on random sums (seed $seed)") {
      val rnd = new scala.util.Random(100 + seed)
      val xs = (0 until 1 + rnd.nextInt(60)).map { _ =>
        val terms = (0 until rnd.nextInt(6)).map(_ => LinExpr.ofSnap(rnd.nextInt(40).toLong, rnd.nextInt(8)))
        (terms.foldLeft(LinExpr.const(rnd.nextInt(4).toDouble))(_ + _)) * (rnd.nextInt(7) - 3).toDouble
      }
      val (c, m) = mapFold(xs)
      val e = built(xs)
      assert(e.size == m.size && e.terms == m && e.const == c)
      assert(e.eval(look) == mapEval(c, m))
      assert(xs.reduce(_ + _).terms == m)
    }
  }
}
