package repro

/** The DuckDB oracle itself: it must reject a wrong result and a
  * mismatched column name, or its passes on the executor mean nothing.
  */
class OracleSpec extends SparkSpec {

  test("the oracle catches a wrong result") {
    val s = spark
    import s.implicits._
    val t = Seq((1, 2.0), (1, 4.0)).toDF("k", "v")
    val wrong = Seq((1, 5.0)).toDF("k", "feature") // truth: sum = 6
    intercept[IllegalArgumentException](
      Oracle.assertEquivalent(wrong,
        "SELECT k, CAST(SUM(CAST(v AS DOUBLE)) AS DOUBLE) AS feature FROM t GROUP BY k",
        "t" -> t))
  }

  test("the oracle catches a column-name mismatch") {
    val s = spark
    import s.implicits._
    val t = Seq((1, 2.0)).toDF("k", "v")
    val df = Seq((1, 2.0)).toDF("k", "other")
    intercept[IllegalArgumentException](
      Oracle.assertEquivalent(df, "SELECT k, CAST(v AS DOUBLE) AS feature FROM t", "t" -> t))
  }
}
