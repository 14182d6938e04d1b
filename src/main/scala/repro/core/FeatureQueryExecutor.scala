package repro.core

import scala.collection.mutable
import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Executes predicate-aware feature queries against the relevant table and
  * aligns each feature column to the training rows, given by their key
  * tuples `trainKeyRows` in row order (Definition 3's LEFT JOIN, with keys
  * that have no qualifying rows filled with 0.0).
  *
  *  - [[featureValues]] is the search path. On its first call it collects
  *    the relevant table into the driver as a [[ColumnarTable]]; each key
  *    subset gets a row → group index on first use. A query is then one
  *    pass over arrays, not a Spark job.
  *  - [[featureDf]] is the reference path: the same query planned by
  *    Catalyst (filter → hash aggregate → shuffle). Tests check the two
  *    paths against each other and against DuckDB through [[duckSql]].
  *
  * NULL features (keys with no qualifying rows, or NaN-producing
  * aggregates such as variance of a single row) are imputed with 0.0,
  * mirroring Featuretools' fillna(0) convention.
  */
final class FeatureQueryExecutor(
    relevant: DataFrame,
    val allKeys: Vector[String],
    val trainKeyRows: Array[Vector[String]],
) {
  private lazy val columnar: ColumnarTable = ColumnarTable.collect(relevant, allKeys)
  private val groupIndexes = mutable.HashMap.empty[Vector[String], ColumnarTable.Groups]

  private def predColumn(p: Predicate): Option[Column] = {
    if (p.isEmpty) None
    else {
      val c = col(p.attr)
      val parts =
        p.eqValue.map(v => c === lit(v)).toList ++
          p.lo.map(l => c.cast("double") >= lit(l)).toList ++
          p.hi.map(h => c.cast("double") <= lit(h)).toList
      Some(parts.reduce(_ && _))
    }
  }

  /** q(R) through Spark: keys + `feature` (double; NaN normalized to NULL). */
  def featureDf(q: QuerySpec): DataFrame = {
    Aggregates.register(relevant.sparkSession)
    val filtered = q.preds.flatMap(predColumn).foldLeft(relevant)((df, c) => df.filter(c))
    val raw = filtered
      .groupBy(q.keys.map(col): _*)
      .agg(q.agg.sparkExpr(col(q.aggAttr)).cast("double").as("feature"))
    raw.withColumn("feature", when(isnan(col("feature")), lit(null)).otherwise(col("feature")))
  }

  /** The feature column aligned to [[trainKeyRows]], computed over the
    * driver-side columnar copy of the relevant table.
    */
  def featureValues(q: QuerySpec): Array[Double] = {
    val keyIdx = q.keys.map(allKeys.indexOf)
    require(keyIdx.forall(_ >= 0), s"query keys ${q.keys} not a subset of $allKeys")
    val groups = groupIndexes.synchronized {
      groupIndexes.getOrElseUpdate(q.keys, columnar.groups(q.keys, trainKeyRows.map(k => keyIdx.map(k))))
    }
    val byGroup = columnar.aggregate(q, groups)
    groups.trainGroup.map(byGroup)
  }

  /** DuckDB SQL equivalent of [[featureDf]] over VARCHAR-typed `table`
    * (see [[repro.Oracle]]): used by correctness checks only.
    */
  def duckSql(q: QuerySpec, table: String): String = {
    val where = q.preds.filterNot(_.isEmpty).flatMap { p =>
      p.eqValue.map(v => s"${p.attr} = '${v.replace("'", "''")}'").toList ++
        p.lo.map(l => s"CAST(${p.attr} AS DOUBLE) >= $l").toList ++
        p.hi.map(h => s"CAST(${p.attr} AS DOUBLE) <= $h").toList
    }
    val w = if (where.isEmpty) "" else where.mkString(" WHERE ", " AND ", "")
    val keys = q.keys.mkString(", ")
    s"SELECT $keys, CAST(${q.agg.duckExpr(q.aggAttr)} AS DOUBLE) AS feature FROM $table$w GROUP BY $keys"
  }
}
