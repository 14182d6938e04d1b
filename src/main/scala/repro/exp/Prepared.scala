package repro.exp

import scala.collection.mutable
import org.apache.spark.sql.functions.col
import repro.baselines._
import repro.core._
import repro.data.TaskDef
import repro.ml._
import repro.proxy.{MIProxy, ProxyKind}

/** One dataset prepared for experiments: training rows collected once
  * (keys / base features / label all from the same collect, so alignment
  * is guaranteed), predicate domains extracted, feature executor ready, and
  * a feature store shared across every method and model so identical
  * queries are never re-executed.
  *
  * Each compared method is a `run*` method: all of them augment
  * `numFeatures` features (paper: 40) and are scored by [[finalMetric]].
  */
final class Prepared(val td: TaskDef, val budget: SearchBudget, splitSeed: Long = 42L) {

  // `rows` is local to this block, so it is garbage once the arrays are built.
  val (keyRows, baseX, y) = {
    val rows = td.train.select((td.keys ++ td.baseFeatures :+ td.label).map(col): _*).collect()
    require(rows.nonEmpty, s"${td.name}: empty training table")
    (rows.map(r => Vector.tabulate(td.keys.size)(i => String.valueOf(r.get(i)))),
      rows.map(r => Array.tabulate(td.baseFeatures.size)(j => num(r.get(td.keys.size + j)))),
      rows.map(r => num(r.get(td.keys.size + td.baseFeatures.size))))
  }

  val split: Splits.Split = Splits.threeWay(y.length, splitSeed)
  val executor = new FeatureQueryExecutor(td.relevant, td.keys, keyRows)
  val domains: Map[String, AttrDomain] =
    SearchSpace.domains(td.relevant, td.predAttrs, budget.maxCats, budget.numQuantiles)
  val featureStore: mutable.Map[String, Array[Double]] = mutable.HashMap.empty

  def template(p: Vector[String]): QueryTemplate = QueryTemplate(AggFunc.all, td.aggAttrs, p, td.keys)
  def codec(p: Vector[String]): QueryVectorCodec = new QueryVectorCodec(template(p), domains)

  def evaluator(modelKind: ModelKind, proxy: ProxyKind, seed: Long): Evaluator =
    new Evaluator(executor, baseX, y, td.task, modelKind, split, proxy, seed, featureStore = featureStore)

  /** The full Featuretools candidate pool (predicate-free agg queries). */
  lazy val ftCandidates: CandidatePool = pool(template(Vector.empty).predicateFreeQueries.map(feature))

  /** Direct-join candidates (each relevant column as-is, via a one-to-one
    * AVG aggregate) for the ARDA / AutoFeature baselines, in
    * [[TaskDef.directJoinAttrs]] order.
    */
  lazy val directCandidates: CandidatePool =
    pool(td.directJoinAttrs.map(a => feature(QuerySpec(AggFunc.Avg, a, Vector.empty, td.keys))))

  private def pool(columns: Vector[Array[Double]]): CandidatePool =
    CandidatePool(baseX, columns, y, td.task, split.train, split.valid)

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

  /** Plain Featuretools: first k candidates in enumeration order. */
  def runFT(mk: ModelKind): Double = finalMetric(mk, ftCandidates.columns.take(budget.numFeatures))

  /** Featuretools + a selector; None when the selector doesn't apply to
    * the task (Chi2/Gini on regression — the paper's blank cells).
    */
  def runFTSelector(mk: ModelKind, sel: FeatureSelectors.Selector): Option[Double] = {
    if (!FeatureSelectors.supports(sel, td.task)) None
    else {
      val idx = FeatureSelectors.select(sel, ftCandidates, mk, budget.numFeatures)
      Some(finalMetric(mk, idx.map(ftCandidates.columns)))
    }
  }

  /** The Random baseline: random templates + random pool search. */
  def runRandom(mk: ModelKind, seed: Long = 1L): Double = {
    val ev = evaluator(mk, MIProxy, seed)
    val res = FeatAug.selectQueriesRandom(td.predAttrs, codec, ev, budget, seed)
    finalMetric(mk, res.queries.map(feature))
  }

  /** FeatAug with the given configuration; returns (metric, run trace). */
  def runFeatAug(mk: ModelKind, config: FeatAugConfig): (Double, FeatAug.RunResult) = {
    val ev = evaluator(mk, config.proxy, config.seed)
    val res = FeatAug.selectQueries(td.predAttrs, codec, ev, config)
    (finalMetric(mk, res.queries.map(feature)), res)
  }

  /** ARDA (one-to-one scenario only). */
  def runARDA(mk: ModelKind, seed: Long = 3L): Double = {
    val idx = ARDA.select(directCandidates, budget.numFeatures, seed = seed)
    finalMetric(mk, idx.map(directCandidates.columns))
  }

  /** AutoFeature with the MAB or DQN agent (one-to-one scenario only). */
  def runAutoFeature(mk: ModelKind, agent: AutoFeature.Agent, seed: Long = 4L): Double = {
    val idx = AutoFeature.select(agent, directCandidates, mk, budget.numFeatures, seed = seed)
    finalMetric(mk, idx.map(directCandidates.columns))
  }

  /** A collected value as a double; NULL reads as 0.0. */
  private def num(v: Any): Double = if (v == null) 0.0 else ColumnarTable.toDouble(v)
}
