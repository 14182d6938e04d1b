package repro.core

import org.apache.spark.sql.functions._
import repro.SparkSpec

/** Unit semantics of the custom aggregates and the two functions whose
  * DuckDB counterparts differ (KURTOSIS, MODE) — verified against
  * hand-computed values instead of the oracle, on the Spark path and, for
  * MODE's tie-break, on the columnar path too.
  */
class AggregatesSpec extends SparkSpec {

  private def aggValue(agg: AggFunc, values: Seq[Double]): Double = {
    Aggregates.register(spark)
    import spark.implicits._
    val df = values.map(v => (1L, v)).toDF("k", "v")
    val r = df.groupBy("k").agg(agg.sparkExpr(col("v")).cast("double").as("f")).collect()(0)
    r.getDouble(1)
  }

  test("median helper: odd count picks the middle value") {
    assert(Aggregates.median(Array(3.0, 1.0, 2.0)) == 2.0)
  }

  test("median helper: even count interpolates the two middle values") {
    assert(Aggregates.median(Array(1.0, 2.0, 3.0, 10.0)) == 2.5)
  }

  test("median helper rejects empty input") {
    intercept[IllegalArgumentException](Aggregates.median(Array.empty))
  }

  test("ENTROPY of a uniform 4-value group is 2 bits") {
    assert(math.abs(aggValue(AggFunc.Entropy, Seq(1, 2, 3, 4)) - 2.0) < 1e-9)
  }

  test("ENTROPY of a constant group is 0") {
    assert(aggValue(AggFunc.Entropy, Seq(5, 5, 5)) == 0.0)
  }

  test("ENTROPY of a 75/25 split is the expected Shannon value") {
    val expected = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25)) / math.log(2)
    assert(math.abs(aggValue(AggFunc.Entropy, Seq(1, 1, 1, 2)) - expected) < 1e-9)
  }

  test("MAD is the median absolute deviation around the median") {
    // values 1,2,4,8 -> median 3, |dev| = 2,1,1,5 -> median 1.5
    assert(aggValue(AggFunc.Mad, Seq(1, 2, 4, 8)) == 1.5)
  }

  test("MAD of a constant group is 0") {
    assert(aggValue(AggFunc.Mad, Seq(3, 3, 3, 3)) == 0.0)
  }

  test("KURTOSIS matches the population excess kurtosis formula") {
    val vs = Seq(1.0, 2.0, 3.0, 4.0, 10.0)
    val n = vs.size
    val m = vs.sum / n
    val m2 = vs.map(v => math.pow(v - m, 2)).sum / n
    val m4 = vs.map(v => math.pow(v - m, 4)).sum / n
    val expected = m4 / (m2 * m2) - 3.0
    assert(math.abs(aggValue(AggFunc.Kurtosis, vs) - expected) < 1e-9)
  }

  /** `agg` over one group through the columnar `featureValues` path. */
  private def columnarValue(agg: AggFunc, values: Seq[Double]): Double = {
    import spark.implicits._
    val ex = MiniData.executor(Seq(1L).toDF("k"), values.map(v => (1L, v)).toDF("k", "v"), Vector("k"))
    ex.featureValues(QuerySpec(agg, "v", Vector.empty, Vector("k"))).head
  }

  test("MODE returns the most frequent value when unambiguous") {
    assert(aggValue(AggFunc.Mode, Seq(1, 2, 2, 2, 3)) == 2.0)
  }

  test("MODE breaks ties to the smallest most frequent value on both paths") {
    // -1 and 7 both appear twice: the smaller wins.
    val ties = Seq(7.0, 2.0, -1.0, 7.0, 5.0, -1.0)
    assert(aggValue(AggFunc.Mode, ties) == -1.0)
    assert(columnarValue(AggFunc.Mode, ties) == -1.0)
    // 3 appears three times and beats the tied pair.
    val clear = Seq(7.0, 3.0, -1.0, 3.0, 7.0, 3.0, -1.0)
    assert(aggValue(AggFunc.Mode, clear) == 3.0)
    assert(columnarValue(AggFunc.Mode, clear) == 3.0)
  }

  test("ENTROPY and MAD skip NULL inputs") {
    import spark.implicits._
    Aggregates.register(spark)
    val df = Seq((1L, Some(1.0)), (1L, None), (1L, Some(2.0)), (1L, Some(4.0)), (1L, Some(8.0))).toDF("k", "v")
    val r = df.groupBy("k").agg(expr("fa_entropy(v)"), expr("fa_mad(v)")).collect()(0)
    assert(math.abs(r.getDouble(1) - 2.0) < 1e-9) // four distinct non-null values
    assert(r.getDouble(2) == 1.5)
  }

  test("registration is idempotent") {
    Aggregates.register(spark)
    Aggregates.register(spark)
    import spark.implicits._
    val df = Seq((1L, 1.0), (1L, 2.0)).toDF("k", "v")
    assert(df.groupBy("k").agg(expr("fa_entropy(v)")).collect()(0).getDouble(1) == 1.0)
  }

  test("the custom aggregates are registered in every session that plans a query") {
    Aggregates.register(spark)
    val other = spark.newSession()
    import other.implicits._
    val ex = MiniData.executor(Seq(1L).toDF("k"), Seq((1L, 1.0), (1L, 2.0)).toDF("k", "v"), Vector("k"))
    val q = QuerySpec(AggFunc.Entropy, "v", Vector.empty, Vector("k"))
    assert(ex.featureDf(q).collect()(0).getDouble(1) == 1.0)
  }

  test("the full function set has the paper's 15 members, basic has 5") {
    assert(AggFunc.all.size == 15)
    assert(MiniData.basic.size == 5 && MiniData.basic.forall(AggFunc.all.contains))
    assert(AggFunc.all.map(_.name).distinct.size == 15)
  }
}
