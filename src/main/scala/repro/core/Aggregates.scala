package repro.core

import org.apache.spark.sql.{Encoder, Encoders, SparkSession}
import org.apache.spark.sql.expressions.Aggregator
import org.apache.spark.sql.functions

/** Custom aggregation functions the paper's template set uses but Spark
  * lacks: ENTROPY and MAD (Table II). Both are typed [[Aggregator]]s
  * registered in the session's function registry — the "new aggregate"
  * extension point — and both match DuckDB's `entropy()` / `mad()`
  * semantics so the result oracle can check them:
  *
  *  - ENTROPY: Shannon entropy (log base 2) of the value-frequency
  *    distribution within the group.
  *  - MAD: median absolute deviation, `median(|x - median(x)|)`, with the
  *    even-count median interpolated as the mean of the two middle values.
  *
  * The columnar executor ([[ColumnarTable]]) runs the same math:
  * [[entropy]], [[mad]] and [[median]].
  *
  * Buffers are case classes over `Map`/`Vector` so Spark's product
  * ExpressionEncoder serializes them (Kryo-encoded buffers break inside
  * ScalaAggregator on Spark 4.1). Inputs are boxed so that NULLs are
  * skipped, as every built-in aggregate and DuckDB skip them; a group of
  * only NULLs finishes at 0.0.
  */
object Aggregates {

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
    override def finish(b: CountsBuf): Double = entropy(b.counts.toVector.sortBy(_._1).map(_._2))
    override def bufferEncoder: Encoder[CountsBuf] = Encoders.product[CountsBuf]
    override def outputEncoder: Encoder[Double] = Encoders.scalaDouble
  }

  /** Median absolute deviation around the median. */
  object MadAgg extends Aggregator[java.lang.Double, ValuesBuf, Double] {
    override def zero: ValuesBuf = ValuesBuf(Vector.empty)
    override def reduce(b: ValuesBuf, a: java.lang.Double): ValuesBuf =
      if (a == null) b else ValuesBuf(b.values :+ a.doubleValue)
    override def merge(b1: ValuesBuf, b2: ValuesBuf): ValuesBuf = ValuesBuf(b1.values ++ b2.values)
    override def finish(b: ValuesBuf): Double = if (b.values.isEmpty) 0.0 else mad(b.values.toArray)
    override def bufferEncoder: Encoder[ValuesBuf] = Encoders.product[ValuesBuf]
    override def outputEncoder: Encoder[Double] = Encoders.scalaDouble
  }

  /** Shannon entropy (bits) of the value counts `counts`, summed in the
    * order given (ascending value), so the result does not depend on the
    * order in which a buffer saw the rows; 0.0 for no values.
    */
  def entropy(counts: Seq[Long]): Double = {
    val n = counts.sum.toDouble
    if (n <= 0) 0.0
    else {
      val h = -counts.iterator.map { c => val p = c / n; p * math.log(p) / math.log(2.0) }.sum
      if (h == 0.0) 0.0 else h // normalize IEEE -0.0 from single-value groups
    }
  }

  /** Median absolute deviation of non-empty `values` around their median. */
  def mad(values: Array[Double]): Double = {
    val med = median(values)
    median(values.map(v => math.abs(v - med)))
  }

  /** Interpolated median: mean of the two middle values for even counts. */
  def median(values: Array[Double]): Double = {
    require(values.nonEmpty, "median of empty array")
    val s = values.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2.0
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
