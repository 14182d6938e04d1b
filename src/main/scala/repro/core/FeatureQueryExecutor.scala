package repro.core

import scala.collection.mutable
import org.apache.spark.sql.DataFrame

/** Executes predicate-aware feature queries against the relevant table and
  * aligns each feature column to the training rows, given by their key
  * tuples `trainKeyRows` in row order (Definition 3's LEFT JOIN, with keys
  * that have no qualifying rows filled with 0.0).
  *
  * On its first call [[featureValues]] collects the relevant table into the
  * driver as a [[ColumnarTable]]; each key subset gets a row → group index
  * on first use. A query is then one pass over arrays, not a Spark job.
  * [[duckSql]] renders the same query for the DuckDB oracle; the tests also
  * hold a Spark reference path (filter → hash aggregate → shuffle planned
  * by Catalyst) and check the columnar results against both.
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
  private val groupIndexes = new Memo[Vector[String], ColumnarTable.Groups]

  /** The feature column aligned to [[trainKeyRows]], computed over the
    * driver-side columnar copy of the relevant table.
    */
  def featureValues(q: QuerySpec): Array[Double] = {
    val keyIdx = q.keys.map(allKeys.indexOf)
    require(keyIdx.forall(_ >= 0), s"query keys ${q.keys} not a subset of $allKeys")
    val groups = groupIndexes(q.keys)(columnar.groups(q.keys, trainKeyRows.map(k => keyIdx.map(k))))
    val byGroup = columnar.aggregate(q, groups)
    groups.trainGroup.map(byGroup)
  }

  /** DuckDB SQL for `q` over VARCHAR-typed `table` (see [[repro.Oracle]]),
    * whose result is [[featureValues]] before the LEFT JOIN to the training
    * keys: used by correctness checks only.
    */
  def duckSql(q: QuerySpec, table: String): String = {
    val where = q.preds.flatMap { p =>
      p.eqValue.map(v => s"${p.attr} = '${v.replace("'", "''")}'").toList ++
        p.lo.map(l => s"CAST(${p.attr} AS DOUBLE) >= $l").toList ++
        p.hi.map(h => s"CAST(${p.attr} AS DOUBLE) <= $h").toList
    }
    val w = if (where.isEmpty) "" else where.mkString(" WHERE ", " AND ", "")
    val keys = q.keys.mkString(", ")
    s"SELECT $keys, CAST(${q.agg.duckExpr(q.aggAttr)} AS DOUBLE) AS feature FROM $table$w GROUP BY $keys"
  }
}

object FeatureQueryExecutor {

  /** `q`'s column in `store`, or `compute`'s, then stored: the program's one
    * store access. It holds the store's monitor, so a store that is not
    * thread-safe sees one access at a time and each missing key is computed once.
    */
  def lookup(store: mutable.Map[String, Array[Double]], q: QuerySpec)(compute: => Array[Double]): Array[Double] =
    store.synchronized(store.getOrElseUpdate(q.cacheKey, compute))
}
