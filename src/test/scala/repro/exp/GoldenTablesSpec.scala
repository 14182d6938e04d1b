package repro.exp

import java.nio.charset.StandardCharsets.US_ASCII
import repro.SparkSpec

/** Every paper table at SF 0.01 on the bench budget, joined as
  * `RunTables --sf 0.01` prints them, against that command's committed
  * standard output. The output was taken under the POSIX locale, whose
  * stdout encoding writes a non-ASCII character (Table I's `§`) as `?`, so
  * the rendered text is encoded as US-ASCII before the bytes are compared.
  * A change that moves a result on purpose updates
  * `golden/tables-sf0.01.txt` and lists the moved cells in CHANGES.md.
  */
class GoldenTablesSpec extends SparkSpec {

  test("RunTables at SF 0.01 prints the golden tables byte for byte") {
    val exp = new Experiments(spark, 0.01, Experiments.benchBudget)
    val rendered = exp.tableIds.map(exp.table(_).render).mkString("", "\n\n", "\n").getBytes(US_ASCII)
    val golden = getClass.getResourceAsStream("/golden/tables-sf0.01.txt").readAllBytes()
    val (got, want) = (new String(rendered, US_ASCII).split("\n"), new String(golden, US_ASCII).split("\n"))
    got.zipAll(want, "<none>", "<none>").zipWithIndex.find { case ((g, w), _) => g != w }.foreach {
      case ((g, w), i) => fail(s"line ${i + 1} differs:\n  rendered: $g\n  golden:   $w")
    }
    assert(java.util.Arrays.equals(rendered, golden))
  }
}
