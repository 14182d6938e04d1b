package repro.core

import org.apache.spark.sql.{Column, DataFrame, Encoder, Encoders, SparkSession}
import org.apache.spark.sql.expressions.Aggregator
import org.apache.spark.sql.functions
import org.apache.spark.sql.functions._

/** The Spark reference path for feature queries: q(R) planned by Catalyst
  * (filter → hash aggregate → shuffle). The program answers queries with
  * [[FeatureQueryExecutor.featureValues]] over a [[ColumnarTable]]; tests
  * check that path against this one and both against DuckDB through
  * [[FeatureQueryExecutor.duckSql]].
  *
  * NaN-producing aggregates (variance of a single row) come out as NULL,
  * which the columnar path reads as 0.0.
  */
object SparkReference {

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

  /** q(R) through Spark over `relevant`: keys + `feature` (double; NaN
    * normalized to NULL). Pass the frame the executor under test was built
    * from, so both see the same partitions.
    */
  def featureDf(relevant: DataFrame, q: QuerySpec): DataFrame = {
    register(relevant.sparkSession)
    val filtered = q.preds.flatMap(predColumn).foldLeft(relevant)((df, c) => df.filter(c))
    val raw = filtered
      .groupBy(q.keys.map(col): _*)
      .agg(sparkExpr(q.agg, col(q.aggAttr)).cast("double").as("feature"))
    raw.withColumn("feature", when(isnan(col("feature")), lit(null)).otherwise(col("feature")))
  }

  /** The Catalyst aggregate of `agg` over the (numeric) aggregation attribute. */
  def sparkExpr(agg: AggFunc, c: Column): Column = agg match {
    case AggFunc.Sum           => sum(c)
    case AggFunc.Min           => min(c)
    case AggFunc.Max           => max(c)
    case AggFunc.Count         => count(c)
    case AggFunc.Avg           => avg(c)
    case AggFunc.CountDistinct => countDistinct(c)
    case AggFunc.VarPop        => var_pop(c)
    case AggFunc.VarSamp       => var_samp(c)
    case AggFunc.StdPop        => stddev_pop(c)
    case AggFunc.StdSamp       => stddev_samp(c)
    case AggFunc.Entropy       => call_udf("fa_entropy", c.cast("double"))
    case AggFunc.Kurtosis      => kurtosis(c)
    case AggFunc.Mode          => mode(c, deterministic = true)
    case AggFunc.Mad           => call_udf("fa_mad", c.cast("double"))
    case AggFunc.Median        => median(c)
  }

  /* Custom aggregation functions the paper's template set uses but Spark
   * lacks: ENTROPY and MAD (Table II). Both are typed [[Aggregator]]s
   * registered in the session's function registry — Spark's "new aggregate"
   * extension point — and both match DuckDB's `entropy()` / `mad()`
   * semantics so the result oracle can check them:
   *
   *  - ENTROPY: Shannon entropy (log base 2) of the value-frequency
   *    distribution within the group.
   *  - MAD: median absolute deviation, `median(|x - median(x)|)`, with the
   *    even-count median interpolated as the mean of the two middle values.
   *
   * They run the math of the columnar kernels: [[ColumnarTable.entropy]],
   * [[ColumnarTable.mad]].
   *
   * Buffers are case classes over `Map`/`Vector` so Spark's product
   * ExpressionEncoder serializes them (Kryo-encoded buffers break inside
   * ScalaAggregator on Spark 4.1). Inputs are boxed so that NULLs are
   * skipped, as every built-in aggregate and DuckDB skip them; a group of
   * only NULLs finishes at 0.0.
   */

  /** Value-frequency buffer for ENTROPY. */
  final case class CountsBuf(counts: Map[Double, Long])
  /** Raw-values buffer for MAD (group sizes are small at our scale). */
  final case class ValuesBuf(values: Vector[Double])

  /** Shannon entropy (bits) over the multiset of group values. */
  object EntropyAgg extends Aggregator[java.lang.Double, CountsBuf, Double] {
    override def zero: CountsBuf = CountsBuf(Map.empty)
    override def reduce(b: CountsBuf, a: java.lang.Double): CountsBuf =
      if (a == null) b else CountsBuf(b.counts.updated(a, b.counts.getOrElse(a, 0L) + 1L))
    override def merge(b1: CountsBuf, b2: CountsBuf): CountsBuf =
      CountsBuf(b2.counts.foldLeft(b1.counts) { case (m, (k, v)) => m.updated(k, m.getOrElse(k, 0L) + v) })
    override def finish(b: CountsBuf): Double = ColumnarTable.entropy(b.counts.toVector.sortBy(_._1).map(_._2))
    override def bufferEncoder: Encoder[CountsBuf] = Encoders.product[CountsBuf]
    override def outputEncoder: Encoder[Double] = Encoders.scalaDouble
  }

  /** Median absolute deviation around the median. */
  object MadAgg extends Aggregator[java.lang.Double, ValuesBuf, Double] {
    override def zero: ValuesBuf = ValuesBuf(Vector.empty)
    override def reduce(b: ValuesBuf, a: java.lang.Double): ValuesBuf =
      if (a == null) b else ValuesBuf(b.values :+ a.doubleValue)
    override def merge(b1: ValuesBuf, b2: ValuesBuf): ValuesBuf = ValuesBuf(b1.values ++ b2.values)
    override def finish(b: ValuesBuf): Double = if (b.values.isEmpty) 0.0 else ColumnarTable.mad(b.values.toArray)
    override def bufferEncoder: Encoder[ValuesBuf] = Encoders.product[ValuesBuf]
    override def outputEncoder: Encoder[Double] = Encoders.scalaDouble
  }

  /** Register `fa_entropy` / `fa_mad` in `spark`'s function registry
    * unless it has them. Registries are per session, so this runs for
    * every session that plans a query.
    */
  def register(spark: SparkSession): Unit = {
    if (!spark.catalog.functionExists("fa_entropy"))
      spark.udf.register("fa_entropy", functions.udaf(EntropyAgg, Encoders.DOUBLE))
    if (!spark.catalog.functionExists("fa_mad"))
      spark.udf.register("fa_mad", functions.udaf(MadAgg, Encoders.DOUBLE))
  }
}
