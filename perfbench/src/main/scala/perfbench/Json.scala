package perfbench

/** Minimal JSON writer for the result line, the run record and the span
  * file. Objects keep their field order.
  */
object Json {
  final case class Obj(fields: (String, Any)*)

  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    (b += '"').result()
  }

  def enc(v: Any): String = v match {
    case null         => "null"
    case s: String    => str(s)
    case b: Boolean   => b.toString
    case d: Double    =>
      require(!d.isNaN && !d.isInfinite, s"non-finite number in JSON output")
      d.toString
    case i: Int       => i.toString
    case l: Long      => l.toString
    case o: Obj       => o.fields.map { case (k, x) => s"${str(k)}: ${enc(x)}" }.mkString("{", ", ", "}")
    case s: Iterable[_] => s.map(enc).mkString("[", ", ", "]")
    case other        => str(other.toString)
  }
}
