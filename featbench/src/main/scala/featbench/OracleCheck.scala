package featbench

import scala.util.Random
import org.apache.spark.sql.Row
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{StringType, StructField, StructType}
import repro.Oracle
import repro.core.QuerySpec
import repro.exp.Prepared

/** Checks feature columns, as the store served them to the search, against
  * DuckDB through [[repro.Oracle]].
  *
  * Loading the whole relevant table into DuckDB costs seconds per 10k rows,
  * so the check covers a seeded sample of training rows: rows that share the
  * last key's value with one anchor row (Tmall: one merchant). The relevant
  * rows loaded are every row of every group those sample rows fall in, for
  * each key subset the queries group by, so each sampled group is complete
  * and its DuckDB aggregate is exact. Values must agree to 1e-9 relative
  * (summation order may differ between engines).
  */
object OracleCheck {

  def check(p: Prepared, served: Vector[(QuerySpec, Array[Double])], seed: Long, sampleRows: Int = 32): Unit = {
    val checked = served.filter(_._1.agg.oracleSafe)
    if (checked.isEmpty) return
    val spark = p.td.train.sparkSession
    val keys = p.td.keys

    val rnd = new Random(seed)
    val anchor = p.keyRows(rnd.nextInt(p.keyRows.length))
    val peers = p.keyRows.indices.filter(i => p.keyRows(i).last == anchor.last)
    val sample = rnd.shuffle(peers).take(sampleRows).toVector

    val groupings = checked.map(_._1.keys).distinct
    val inSample = groupings.map { ks =>
      ks.map { k =>
        val values = sample.map(i => p.keyRows(i)(keys.indexOf(k))).distinct
        col(k).cast("string").isin(values: _*)
      }.reduce(_ && _)
    }.reduce(_ || _)
    val usedCols = (keys ++ checked.flatMap { case (q, _) => q.aggAttr +: q.preds.filterNot(_.isEmpty).map(_.attr) }).distinct
    val relevant = p.td.relevant.filter(inSample).select(usedCols.map(col): _*)

    val servedSchema = StructType((("qid" +: keys) :+ "v").map(StructField(_, StringType)))
    val servedRows = for {
      ((_, values), qid) <- checked.zipWithIndex
      i <- sample
    } yield Row.fromSeq((qid.toString +: p.keyRows(i)) :+ values(i).toString)
    val servedDf = spark.createDataFrame(spark.sparkContext.parallelize(servedRows, 1), servedSchema)

    val sql = checked.zipWithIndex.map { case ((q, _), qid) =>
      val on = q.keys.map(k => s"s.$k = q.$k").mkString(" AND ")
      s"""SELECT '$qid' AS qid, CAST(SUM(CASE WHEN abs(CAST(s.v AS DOUBLE) - COALESCE(q.feature, 0.0))
         |  <= 1e-9 * greatest(1.0, abs(COALESCE(q.feature, 0.0))) THEN 0 ELSE 1 END) AS BIGINT) AS bad
         |FROM s LEFT JOIN (${p.executor.duckSql(q, "r")}) q ON $on
         |WHERE s.qid = '$qid'""".stripMargin
    }.mkString("\nUNION ALL\n")

    import spark.implicits._
    val expected = checked.indices.map(qid => (qid.toString, 0L)).toDF("qid", "bad")
    Oracle.assertEquivalent(expected, sql, "r" -> relevant, "s" -> servedDf)
  }
}
