package repro.query

import org.scalatest.funsuite.AnyFunSuite

import repro.events.Event

/** Single-event predicates of the WHERE clause. */
class PredSpec extends AnyFunSuite {

  private def p(v: Double): Event = Event(0, 0, "P", "g", Map("v" -> v))

  test("NumPred compares with every operator") {
    val expect = Map(
      "<" -> Seq(true, false, false), "<=" -> Seq(true, true, false),
      ">" -> Seq(false, false, true), ">=" -> Seq(false, true, true),
      "=" -> Seq(false, true, false), "!=" -> Seq(true, false, true))
    assert(expect.keySet == NumPred.Ops.toSet)
    expect.foreach { case (op, want) =>
      assert(Seq(1.0, 2.0, 3.0).map(x => NumPred("P", "v", op, 2.0).accepts(p(x))) == want, op)
    }
  }

  test("NumPred passes other types and rejects events without the attribute") {
    val pred = NumPred("P", "v", "!=", 2.0)
    assert(pred.accepts(Event(0, 0, "Q", "g")))
    assert(!pred.accepts(Event(0, 0, "P", "g")))
  }

  test("NumPred with an unknown operator fails at construction") {
    val err = intercept[IllegalArgumentException](NumPred("P", "v", "<>", 1))
    assert(err.getMessage.contains("<>"))
  }
}
