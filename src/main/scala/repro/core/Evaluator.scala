package repro.core

import java.util.concurrent.ConcurrentHashMap
import scala.collection.mutable
import repro.ml._
import repro.proxy._

/** Evaluates candidate queries for the search (memoized by query identity).
  *
  *  - [[realLoss]]: the paper's expensive oracle — augment the training
  *    table with the candidate feature (base features + this one), train
  *    the downstream model (fast budget) on the train split, return the
  *    task loss on the validation split (Problem 1).
  *  - [[proxyScore]]: the low-cost proxy (MI / Spearman between the feature
  *    and the label on train+valid rows, or a fast LR model) used by the
  *    warm-up phase and QTI; higher is better.
  *
  * Feature columns are produced by [[FeatureQueryExecutor.featureValues]]
  * and memoized, so TPE re-proposals and the warm-up → generation hand-off
  * never recompute a query.
  *
  * Safe to call from several threads ([[Parallel.map]] runs search units
  * concurrently). Each loss and proxy key is computed exactly once, outside
  * any lock shared with other keys. The feature store is locked (its own
  * monitor) for each lookup, so a store that is not thread-safe still sees
  * one `getOrElseUpdate` per evaluation and one `featureValues` call per
  * miss; code that touches the store while a search runs must lock it too.
  */
final class Evaluator(
    val executor: FeatureQueryExecutor,
    val baseX: Array[Array[Double]],
    val y: Array[Double],
    val task: Task,
    val modelKind: ModelKind,
    val split: Splits.Split,
    val proxy: ProxyKind = MIProxy,
    val seed: Long = 7L,
    /** Feature columns depend only on the query + dataset, so callers may
      * share one store across evaluators (model kinds, ablation variants)
      * to avoid re-running identical queries.
      */
    featureStore: mutable.Map[String, Array[Double]] = mutable.HashMap.empty,
) {
  private val lossCache = new ConcurrentHashMap[String, Once]
  private val proxyCache = new ConcurrentHashMap[String, Once]
  @volatile private var executed = 0

  /** Feature queries this evaluator executed so far (for cost accounting);
    * columns another evaluator already put in a shared store do not count.
    */
  def queryExecutions: Int = executed
  /** Number of real (model-training) evaluations so far. */
  def realEvaluations: Int = lossCache.size

  def feature(q: QuerySpec): Array[Double] = featureStore.synchronized {
    featureStore.getOrElseUpdate(q.cacheKey, { executed += 1; executor.featureValues(q) })
  }

  /** The value of `q` in `cache`, computed by the first caller only; later
    * callers wait on that key's cell, not on the map.
    */
  private def memo(cache: ConcurrentHashMap[String, Once], q: QuerySpec)(compute: => Double): Double =
    cache.computeIfAbsent(q.cacheKey, _ => new Once(compute)).value

  /** Rows the proxy may look at: train + valid (never test). */
  private lazy val proxyRows: Array[Int] = split.train ++ split.valid

  def realLoss(q: QuerySpec): Double = memo(lossCache, q) {
    Models.splitLoss(modelKind, task, withFeature(feature(q)), split.train, split.valid, seed, fast = true)
  }

  def proxyScore(q: QuerySpec): Double = memo(proxyCache, q) {
    val f = feature(q)
    proxy match {
      case MIProxy =>
        Association.mutualInformation(proxyRows.map(f), proxyRows.map(y), task)
      case SCProxy =>
        Association.spearman(proxyRows.map(f), proxyRows.map(y))
      case LRProxy =>
        // Fast LR on base + candidate; score = negative validation loss.
        -Models.splitLoss(LRModel, task, withFeature(f), split.train, split.valid, seed, fast = true)
    }
  }

  private def withFeature(f: Array[Double]): DenseData = DenseData.appendColumns(baseX, Seq(f), y)
}

/** A value computed on first use; concurrent first users wait for the one
  * computation (a `lazy val` locks its own instance).
  */
private final class Once(compute: => Double) {
  lazy val value: Double = compute
}
