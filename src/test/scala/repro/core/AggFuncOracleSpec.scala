package repro.core

import scala.concurrent.{Await, Future}
import scala.concurrent.ExecutionContext.Implicits.global
import scala.concurrent.duration._
import scala.jdk.CollectionConverters._
import scala.util.Random
import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec}

/** Cross-checks every aggregation function on both execution paths: Spark
  * against DuckDB for the oracle-safe ones, and the columnar `featureValues`
  * against Spark (and DuckDB where oracle-safe) on every query shape — a
  * wrong Catalyst expression, a broken custom aggregate or a columnar kernel
  * that drifts from Spark's semantics fails here, not just "it ran".
  */
class AggFuncOracleSpec extends SparkSpec with MiniData {

  /** Spark against DuckDB, and the columnar path against Spark, from one
    * Spark run of `q`.
    */
  private def oracleCheck(q: QuerySpec): Unit = {
    val df = executor.featureDf(q)
    val rows = df.collect()
    Oracle.assertEquivalent(spark.createDataFrame(rows.toSeq.asJava, df.schema), executor.duckSql(q, "r"), "r" -> relevant)
    ReferencePaths.assertClose(executor, q, ReferencePaths.align(executor, q, rows))
  }

  private val noPreds = Vector.empty[Predicate]
  private val catPred = Vector(Predicate("cat", Some("A"), None, None))
  private val rangePred = Vector(Predicate("t", None, Some(2.0), Some(7.0)))
  private val bothPreds = catPred ++ rangePred

  /** An adversarial one-to-many fixture keyed by (u, m): a single-row
    * group, an all-equal group, ties, negative values, NULL aggregate
    * values (and a NULL category), training keys with no relevant rows,
    * and relevant keys missing from the training table.
    */
  private lazy val advRelevant: DataFrame = {
    val s = spark
    import s.implicits._
    val fixed = Seq[(Long, String, Option[String], Option[Double], Int)](
      (1L, "a", Some("A"), Some(4.0), 3),                                    // single row
      (1L, "b", Some("A"), Some(2.5), 1), (1L, "b", Some("B"), Some(2.5), 5),
      (1L, "b", Some("A"), Some(2.5), 8),                                    // all equal
      (2L, "a", Some("A"), Some(3.0), 2), (2L, "a", Some("A"), Some(1.0), 4),
      (2L, "a", Some("B"), Some(3.0), 6), (2L, "a", Some("A"), Some(1.0), 7),
      (2L, "a", Some("C"), Some(2.0), 9),                                    // ties: 1 and 3 twice
      (2L, "b", Some("A"), Some(-4.5), 0), (2L, "b", Some("B"), Some(-1.0), 3),
      (2L, "b", Some("A"), Some(0.0), 5), (2L, "b", Some("A"), Some(7.25), 8), // negatives
      (3L, "a", Some("A"), None, 4), (3L, "a", Some("B"), None, 6),         // only NULL values
      (3L, "b", Some("A"), None, 2), (3L, "b", None, Some(6.0), 5),
      (3L, "b", Some("A"), Some(-2.0), 7),                                   // NULLs mixed in
      (9L, "z", Some("A"), Some(100.0), 5), (9L, "a", Some("B"), Some(50.0), 5), // not in train
    )
    val rnd = new Random(5)
    val random = (1 to 160).map { _ =>
      (6L + rnd.nextInt(8), if (rnd.nextBoolean()) "a" else "b",
        if (rnd.nextInt(10) == 0) None else Some(Seq("A", "B", "C")(rnd.nextInt(3))),
        if (rnd.nextInt(12) == 0) None else Some(rnd.nextInt(7) - 2.0 + (if (rnd.nextBoolean()) 0.5 else 0.0)),
        rnd.nextInt(10))
    }
    (fixed ++ random).toDF("u", "m", "cat", "x", "t").cache()
  }

  private lazy val advExecutor: FeatureQueryExecutor = {
    val s = spark
    import s.implicits._
    val groups = (1L to 3L).flatMap(u => Seq(u -> "a", u -> "b")) ++
      Seq(4L -> "a", 5L -> "c") ++ // no relevant rows
      (6L to 13L).flatMap(u => Seq(u -> "a", u -> "b"))
    MiniData.executor(groups.toDF("u", "m"), advRelevant, Vector("u", "m"))
  }

  /** Query shapes over the adversarial fixture, for `agg` over `x`. */
  private def advShapes(agg: AggFunc): Vector[QuerySpec] = {
    val both = Vector("u", "m")
    val cat = Predicate("cat", Some("A"), None, None)
    val range = Predicate("t", None, Some(2.0), Some(7.0))
    Vector(
      (noPreds, both),
      (Vector(cat), both),
      (Vector(range), both),
      (Vector(cat, range), Vector("u")), // a key subset
      (Vector(Predicate("t", None, Some(5.0), None)), both),
      (Vector(Predicate("t", None, None, Some(4.0))), Vector("u")),
      (Vector(Predicate("cat", Some("ZZZ"), None, None)), both), // not in the dictionary
      (noPreds, Vector("m")),
    ).map { case (p, k) => QuerySpec(agg, "x", p, k) }
  }

  for (agg <- AggFunc.all) {
    if (agg.oracleSafe) {
      test(s"${agg.name}(amt) GROUP BY uid matches DuckDB") {
        oracleCheck(QuerySpec(agg, "amt", noPreds, Vector("uid")))
      }
      test(s"${agg.name}(amt) with categorical + range predicates matches DuckDB") {
        oracleCheck(QuerySpec(agg, "amt", bothPreds, Vector("uid")))
      }
    }
    val paths = if (agg.oracleSafe) "Spark and DuckDB" else "Spark"
    test(s"${agg.name}: columnar featureValues matches $paths on the adversarial fixture") {
      val qs = advShapes(agg)
      // Independent Spark jobs, run concurrently to keep the suite fast.
      val refs = Await.result(Future.traverse(qs)(q => Future(ReferencePaths.sparkAligned(advExecutor, q))), 5.minutes)
      qs.zip(refs).foreach { case (q, ref) => ReferencePaths.assertClose(advExecutor, q, ref) }
      if (agg.oracleSafe) ReferencePaths.assertDuckDb(advExecutor, qs.map(q => q -> advExecutor.featureValues(q)), advRelevant)
    }
  }

  test("equality predicate alone matches DuckDB") {
    oracleCheck(QuerySpec(AggFunc.Avg, "amt", catPred, Vector("uid")))
  }

  test("one-sided range predicates match DuckDB (lower bound only)") {
    oracleCheck(QuerySpec(AggFunc.Sum, "amt", Vector(Predicate("t", None, Some(5.0), None)), Vector("uid")))
  }

  test("one-sided range predicates match DuckDB (upper bound only)") {
    oracleCheck(QuerySpec(AggFunc.Count, "amt", Vector(Predicate("t", None, None, Some(3.0))), Vector("uid")))
  }

  test("aggregating the numeric predicate column itself matches DuckDB") {
    oracleCheck(QuerySpec(AggFunc.Median, "t", rangePred, Vector("uid")))
  }

  test("COUNT_DISTINCT over a low-cardinality column matches DuckDB") {
    oracleCheck(QuerySpec(AggFunc.CountDistinct, "t", catPred, Vector("uid")))
  }

  test("ENTROPY over a low-cardinality column matches DuckDB") {
    oracleCheck(QuerySpec(AggFunc.Entropy, "t", noPreds, Vector("uid")))
  }

  test("MAD over a low-cardinality column matches DuckDB") {
    oracleCheck(QuerySpec(AggFunc.Mad, "t", noPreds, Vector("uid")))
  }
}
