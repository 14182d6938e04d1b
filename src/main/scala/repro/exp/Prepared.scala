package repro.exp

import scala.collection.mutable
import org.apache.spark.sql.functions.col
import repro.baselines.Featuretools
import repro.core._
import repro.data.TaskDef
import repro.ml._
import repro.proxy.ProxyKind

/** One dataset prepared for experiments: training rows collected once
  * (keys / base features / label all from the same collect, so alignment
  * is guaranteed), predicate domains extracted, feature executor ready, and
  * a feature store shared across every method and model so identical
  * queries are never re-executed.
  */
final class Prepared(val td: TaskDef, val budget: SearchBudget, splitSeed: Long = 42L) {

  private val rows =
    td.train.select((td.keys ++ td.baseFeatures :+ td.label).map(col): _*).collect()
  require(rows.nonEmpty, s"${td.name}: empty training table")

  val keyRows: Array[Vector[String]] =
    rows.map(r => Vector.tabulate(td.keys.size)(i => String.valueOf(r.get(i))))
  val baseX: Array[Array[Double]] =
    rows.map(r => Array.tabulate(td.baseFeatures.size)(j => num(r.get(td.keys.size + j))))
  val y: Array[Double] = rows.map(r => num(r.get(td.keys.size + td.baseFeatures.size)))

  val split: Splits.Split = Splits.threeWay(rows.length, splitSeed)
  val executor = new FeatureQueryExecutor(td.relevant, td.keys, keyRows)
  val domains: Map[String, AttrDomain] =
    SearchSpace.domains(td.relevant, td.predAttrs, budget.maxCats, budget.numQuantiles)
  val featureStore: mutable.Map[String, Array[Double]] = mutable.HashMap.empty

  def template(p: Vector[String]): QueryTemplate = QueryTemplate(AggFunc.all, td.aggAttrs, p, td.keys)
  def codec(p: Vector[String]): QueryVectorCodec = new QueryVectorCodec(template(p), domains)

  def evaluator(modelKind: ModelKind, proxy: ProxyKind, seed: Long): Evaluator =
    new Evaluator(executor, baseX, y, td.task, modelKind, split, proxy, seed, featureStore = featureStore)

  /** The full Featuretools candidate pool (predicate-free agg queries). */
  lazy val ftCandidates: Vector[Array[Double]] =
    Featuretools.candidateSpecs(template(Vector.empty)).map(feature)

  /** Direct-join candidates (each relevant column as-is, via a one-to-one
    * AVG aggregate) for the ARDA / AutoFeature baselines, in
    * [[TaskDef.directJoinAttrs]] order.
    */
  lazy val directCandidates: Vector[Array[Double]] =
    td.directJoinAttrs.map(a => feature(QuerySpec(AggFunc.Avg, a, Vector.empty, td.keys)))

  /** Materialize a query's feature through the shared store, holding the
    * store's monitor as [[Evaluator.feature]] does (DESIGN.md §5).
    */
  def feature(q: QuerySpec): Array[Double] = featureStore.synchronized {
    featureStore.getOrElseUpdate(q.cacheKey, executor.featureValues(q))
  }

  /** Test-split metric of the full-budget model over base + features.
    * (Search never sees the test split.)
    */
  def finalMetric(modelKind: ModelKind, features: Seq[Array[Double]], seed: Long = 7L): Double = {
    val m = Models.splitMetric(modelKind, td.task, DenseData.appendColumns(baseX, features, y),
      split.train, split.test, seed, fast = false)
    require(!m.isNaN && !m.isInfinite,
      s"${td.name} / ${modelKind.name} with ${features.size} feature(s): non-finite test metric $m")
    m
  }

  /** A collected value as a double; NULL reads as 0.0. */
  private def num(v: Any): Double = if (v == null) 0.0 else ColumnarTable.toDouble(v)
}
