package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

/** Feature query execution and its alignment to the training rows
  * (Definition 3), on the columnar search path and the Spark reference path.
  */
class ExecutorSpec extends SparkSpec with MiniData {

  private val q = QuerySpec(AggFunc.Sum, "amt",
    Vector(Predicate("cat", Some("A"), None, None), Predicate("t", None, Some(5.0), None)),
    Vector("uid"))

  test("featureDf matches a hand-computed aggregate") {
    val got = executor.featureDf(q).collect().map(r => r.getLong(0) -> r.getDouble(1)).toMap
    assert(got.keySet == signal.keySet)
    got.foreach { case (u, v) => assert(math.abs(v - signal(u)) < 1e-6, s"user $u") }
  }

  test("featureValues fills training keys without qualifying rows with 0") {
    val f = executor.featureValues(q)
    val unmatched = trainRows.indices.filterNot(i => signal.contains(trainRows(i)._1))
    assert(unmatched.nonEmpty, "the fixture needs users without qualifying rows")
    unmatched.foreach(i => assert(f(i) == 0.0, s"row $i"))
  }

  test("featureValues equals the Spark reference path row-by-row") {
    ReferencePaths.assertClose(executor, q, ReferencePaths.sparkAligned(executor, q))
  }

  test("featureValues equals Spark bit for bit where rounding depends on row order") {
    // Three hash partitions, so Spark merges partial aggregates across them.
    val ex = MiniData.executor(train, relevant.repartition(3, col("t")), Vector("uid"))
    for (agg <- Seq(AggFunc.Sum, AggFunc.Avg, AggFunc.VarSamp, AggFunc.StdPop, AggFunc.Kurtosis, AggFunc.Entropy);
         preds <- Seq(Vector.empty, q.preds)) {
      val qq = QuerySpec(agg, "amt", preds, Vector("uid"))
      val (fast, ref) = (ex.featureValues(qq), ReferencePaths.sparkAligned(ex, qq))
      fast.indices.find(i => fast(i) != ref(i))
        .foreach(i => fail(s"${qq.cacheKey} row $i: columnar ${fast(i)} vs Spark ${ref(i)}"))
    }
  }

  test("featureValues is aligned to the training row order") {
    val f = executor.featureValues(q)
    assert(f.length == nUsers)
    trainRows.zipWithIndex.foreach { case ((u, _, _), i) =>
      assert(math.abs(f(i) - signal.getOrElse(u, 0.0)) < 1e-6)
    }
  }

  test("featureValues rejects keys outside the training key set") {
    intercept[IllegalArgumentException](
      executor.featureValues(q.copy(keys = Vector("nope"))))
  }

  test("an always-false predicate yields all-zero features (null fill)") {
    val none = QuerySpec(AggFunc.Sum, "amt",
      Vector(Predicate("cat", Some("ZZZ"), None, None)), Vector("uid"))
    assert(executor.featureValues(none).forall(_ == 0.0))
  }

  test("NaN-producing aggregates are normalized to null then 0") {
    // var_samp of a single row is NaN in Spark; force 1-row groups.
    val s = spark
    import s.implicits._
    val one = Seq((1L, 5.0)).toDF("uid", "amt")
    val ex1 = MiniData.executor(train, one, Vector("uid"))
    val q1 = QuerySpec(AggFunc.VarSamp, "amt", Vector.empty, Vector("uid"))
    val df = ex1.featureDf(q1)
    assert(df.filter(col("feature").isNull).count() == 1)
    assert(ex1.featureValues(q1).forall(_ == 0.0))
  }

  test("a full query (predicates + aggregation) matches DuckDB end-to-end") {
    Oracle.assertEquivalent(executor.featureDf(q), executor.duckSql(q, "r"), "r" -> relevant)
  }

  test("featureValues matches DuckDB's LEFT JOIN semantics") {
    val s = spark
    import s.implicits._
    val served = executor.trainKeyRows.map(_.head.toLong).zip(executor.featureValues(q)).toSeq.toDF("uid", "feat")
    val sql =
      s"""SELECT t.uid, COALESCE(f.feat, 0.0) AS feat FROM tr t
         |LEFT JOIN (SELECT uid, CAST(SUM(CAST(amt AS DOUBLE)) AS DOUBLE) AS feat FROM r
         |           WHERE cat = 'A' AND CAST(t AS DOUBLE) >= 5.0 GROUP BY uid) f
         |ON t.uid = f.uid""".stripMargin
    Oracle.assertEquivalent(served, sql, "r" -> relevant, "tr" -> train.select("uid"))
  }

  test("composite keys group and align correctly") {
    val s = spark
    import s.implicits._
    val rel2 = Seq((1L, 10L, 2.0), (1L, 10L, 4.0), (1L, 20L, 8.0), (2L, 10L, 16.0))
      .toDF("u", "m", "v")
    val tr2 = Seq((1L, 10L), (1L, 20L), (2L, 10L), (2L, 20L)).toDF("u", "m")
    val ex2 = MiniData.executor(tr2, rel2, Vector("u", "m"))
    val qq = QuerySpec(AggFunc.Sum, "v", Vector.empty, Vector("u", "m"))
    assert(ex2.featureValues(qq).toSeq == Seq(6.0, 8.0, 16.0, 0.0))
  }

  test("key-subset grouping aggregates over the coarser key") {
    val s = spark
    import s.implicits._
    val rel2 = Seq((1L, 10L, 2.0), (1L, 20L, 4.0), (2L, 10L, 8.0)).toDF("u", "m", "v")
    val tr2 = Seq((1L, 10L), (1L, 20L), (2L, 10L)).toDF("u", "m")
    val ex2 = MiniData.executor(tr2, rel2, Vector("u", "m"))
    val qq = QuerySpec(AggFunc.Sum, "v", Vector.empty, Vector("u")) // group by u only
    assert(ex2.featureValues(qq).toSeq == Seq(6.0, 6.0, 8.0))
  }

  test("duckSql escapes single quotes in categorical values") {
    val qq = QuerySpec(AggFunc.Count, "amt",
      Vector(Predicate("cat", Some("O'Brien"), None, None)), Vector("uid"))
    assert(executor.duckSql(qq, "r").contains("cat = 'O''Brien'"))
  }
}
