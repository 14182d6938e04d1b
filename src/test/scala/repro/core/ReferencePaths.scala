package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.{StringType, StructField, StructType}
import org.scalatest.Assertions.fail
import repro.Oracle

/** The reference paths a columnar feature column is checked against. */
object ReferencePaths {

  /** Spark's q(R) through [[SparkReference.featureDf]] over `relevant`, the
    * frame `ex` was built from, aligned to the training rows with missing
    * keys and NULLs as 0.0.
    */
  def sparkAligned(ex: FeatureQueryExecutor, relevant: DataFrame, q: QuerySpec): Array[Double] =
    align(ex, q, SparkReference.featureDf(relevant, q).collect())

  /** Collected `featureDf` rows of `q` aligned to the training rows. */
  def align(ex: FeatureQueryExecutor, q: QuerySpec, rows: Array[Row]): Array[Double] = {
    val n = q.keys.size
    val byKey = rows.map { r =>
      ColumnarTable.keyRow(r, n) -> (if (r.isNullAt(n)) 0.0 else r.getDouble(n))
    }.toMap
    val idx = q.keys.map(ex.allKeys.indexOf)
    ex.trainKeyRows.map(k => byKey.getOrElse(idx.map(k), 0.0))
  }

  /** Asserts that the columnar `featureValues` of `q` equals Spark's `ref`. */
  def assertClose(ex: FeatureQueryExecutor, q: QuerySpec, ref: Array[Double]): Unit = {
    val fast = ex.featureValues(q)
    fast.indices.find(i => !close(fast(i), ref(i))).foreach { i =>
      fail(s"${q.cacheKey} row $i key ${ex.trainKeyRows(i)}: columnar ${fast(i)} vs Spark ${ref(i)}")
    }
  }

  /** Equal to 1e-9 relative (absolute below magnitude 1). */
  def close(a: Double, b: Double): Boolean = math.abs(a - b) <= 1e-9 * math.max(1.0, math.abs(b))

  /** Asserts, in one DuckDB run, that each served column equals DuckDB's
    * [[FeatureQueryExecutor.duckSql]] result LEFT JOINed to the training
    * keys (missing keys as 0.0), to 1e-9 relative.
    */
  def assertDuckDb(ex: FeatureQueryExecutor, served: Seq[(QuerySpec, Array[Double])], relevant: DataFrame): Unit = {
    val spark = relevant.sparkSession
    val keys = ex.allKeys
    val schema = StructType((("qid" +: keys) :+ "v").map(StructField(_, StringType)))
    val rows = for (((_, values), qid) <- served.zipWithIndex; i <- values.indices)
      yield Row.fromSeq((qid.toString +: ex.trainKeyRows(i)) :+ values(i).toString)
    val servedDf = spark.createDataFrame(spark.sparkContext.parallelize(rows, 1), schema)
    val sql = served.zipWithIndex.map { case ((q, _), qid) =>
      val on = q.keys.map(k => s"s.$k = q.$k").mkString(" AND ")
      s"""SELECT '$qid' AS qid, CAST(SUM(CASE WHEN abs(CAST(s.v AS DOUBLE) - COALESCE(q.feature, 0.0))
         |  <= 1e-9 * greatest(1.0, abs(COALESCE(q.feature, 0.0))) THEN 0 ELSE 1 END) AS BIGINT) AS bad
         |FROM s LEFT JOIN (${ex.duckSql(q, "r")}) q ON $on
         |WHERE s.qid = '$qid'""".stripMargin
    }.mkString("\nUNION ALL\n")
    import spark.implicits._
    val expected = served.indices.map(qid => (qid.toString, 0L)).toDF("qid", "bad")
    Oracle.assertEquivalent(expected, sql, "r" -> relevant, "s" -> servedDf)
  }
}
