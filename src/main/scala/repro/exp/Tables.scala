package repro.exp

/** A rendered experiment table: the bench suites print these and
  * EXPERIMENTS.md records them next to the paper's numbers.
  */
final case class TableResult(
    title: String,
    header: Vector[String],
    rows: Vector[Vector[String]],
    notes: Vector[String] = Vector.empty) {

  def render: String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(r => r(i).length).max)
    def line(r: Vector[String]): String =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    val body = (line(header) +: sep +: rows.map(line)).mkString("\n")
    val noteBlock = if (notes.isEmpty) "" else notes.map("  note: " + _).mkString("\n", "\n", "")
    s"== $title ==\n$body$noteBlock\n"
  }
}

object TableResult {
  def pct(d: Double): String = f"$d%.1f"
}
