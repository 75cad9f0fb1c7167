package perfbench

import java.io.{File, PrintWriter}

import scala.collection.mutable.ArrayBuffer

/** In-memory spans recorded by the benchmark around its calls into the
  * program's layers. A span's parent is the innermost span open when it
  * was recorded; spans of one thread never overlap except by nesting, so a
  * span's self time is its duration minus its children's durations.
  * Disabled tracers record nothing.
  */
final class Tracer(val on: Boolean) {
  private val names   = ArrayBuffer.empty[String]
  private val ids     = ArrayBuffer.empty[AnyRef]
  private val starts  = ArrayBuffer.empty[Long]
  private val ends    = ArrayBuffer.empty[Long]
  private val parents = ArrayBuffer.empty[Int]
  private var open    = List.empty[Int]

  private def add(name: String, id: AnyRef, start: Long, end: Long): Int = {
    names += name; ids += id; starts += start; ends += end
    parents += open.headOption.getOrElse(-1)
    names.size - 1
  }

  def begin(name: String, id: AnyRef = ""): Int =
    if (!on) -1 else { val k = add(name, id, System.nanoTime(), -1L); open = k :: open; k }

  def end(k: Int): Unit = if (on) { ends(k) = System.nanoTime(); open = open.tail }

  def span[T](name: String, id: AnyRef = "")(body: => T): T = {
    val k = begin(name, id)
    try body finally end(k)
  }

  /** A finished span with timestamps the caller already took. */
  def record(name: String, id: AnyRef, start: Long, end: Long): Unit =
    if (on) add(name, id, start, end)

  /** Durations of the spans with this name, in recording order. */
  def durations(name: String): Seq[Long] =
    names.indices.filter(names(_) == name).map(i => ends(i) - starts(i))

  private def selfNanosArray: Array[Long] = {
    val self = Array.tabulate(names.size)(i => ends(i) - starts(i))
    parents.indices.foreach { i => if (parents(i) >= 0) self(parents(i)) -= ends(i) - starts(i) }
    self
  }

  /** Σ self time per span name, in first-seen order. */
  def selfNanosByName: Seq[(String, Long)] = {
    val self = selfNanosArray
    names.indices.groupBy(names(_)).toSeq
      .map { case (n, is) => (is.min, n, is.map(self(_)).sum) }
      .sortBy(_._1).map { case (_, n, s) => n -> s }
  }

  /** Root spans' self time ÷ root spans' duration: the share of traced
    * wall time no layer span accounts for.
    */
  def unattributedShare: Double = {
    val self = selfNanosArray
    val roots = parents.indices.filter(parents(_) < 0)
    val wall = roots.map(i => ends(i) - starts(i)).sum
    if (wall == 0) 0.0 else roots.map(self(_)).sum.toDouble / wall
  }

  /** Chrome trace-event JSON (chrome://tracing, Perfetto): one complete
    * event per span, times in µs from the first span.
    */
  def write(file: File, meta: Json.Obj): Unit = {
    file.getParentFile.mkdirs()
    val t0 = if (starts.isEmpty) 0L else starts.min
    val w = new PrintWriter(file, "UTF-8")
    try {
      w.print("{\"metadata\": "); w.print(Json.enc(meta)); w.println(", \"traceEvents\": [")
      names.indices.foreach { i =>
        if (i > 0) w.println(",")
        w.print(Json.enc(Json.Obj(
          "name" -> names(i), "ph" -> "X", "pid" -> 1, "tid" -> 1,
          "ts" -> (starts(i) - t0) / 1e3, "dur" -> (ends(i) - starts(i)) / 1e3,
          "args" -> Json.Obj("span" -> i, "parent" -> parents(i), "id" -> ids(i).toString))))
      }
      w.println("]}")
    } finally w.close()
  }
}
