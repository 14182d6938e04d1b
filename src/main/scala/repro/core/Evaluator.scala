package repro.core

import scala.collection.mutable
import repro.Memo
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
  * concurrently). Each loss and proxy key is computed exactly once (a
  * [[Memo]]), and every store access is one [[FeatureQueryExecutor.lookup]].
  */
final class Evaluator(
    val executor: FeatureQueryExecutor,
    val baseX: Array[Array[Double]],
    val y: Array[Double],
    val task: Task,
    val modelKind: ModelKind,
    val split: Splits.Split,
    val proxy: ProxyKind,
    val seed: Long,
    /** Feature columns depend only on the query + dataset, so callers may
      * share one store across evaluators (model kinds, ablation variants)
      * to avoid re-running identical queries.
      */
    featureStore: mutable.Map[String, Array[Double]],
) {
  private val losses = new Memo[String, Double]
  private val proxies = new Memo[String, Double]
  @volatile private var executed = 0

  /** Feature queries this evaluator executed so far (for cost accounting);
    * columns another evaluator already put in a shared store do not count.
    */
  def queryExecutions: Int = executed
  /** Number of real (model-training) evaluations so far. */
  def realEvaluations: Int = losses.size

  def feature(q: QuerySpec): Array[Double] =
    FeatureQueryExecutor.lookup(featureStore, q) { executed += 1; executor.featureValues(q) }

  def realLoss(q: QuerySpec): Double = losses(q.cacheKey) {
    Models.splitLoss(modelKind, task, withFeature(feature(q)), split.train, split.valid, seed, fast = true)
  }

  def proxyScore(q: QuerySpec): Double = proxies(q.cacheKey) {
    val f = feature(q)
    proxy match {
      case MIProxy =>
        Association.mutualInformation(split.trainValid.map(f), split.trainValid.map(y), task)
      case SCProxy =>
        Association.spearman(split.trainValid.map(f), split.trainValid.map(y))
      case LRProxy =>
        // Fast LR on base + candidate; score = negative validation loss.
        -Models.splitLoss(LRModel, task, withFeature(f), split.train, split.valid, seed, fast = true)
    }
  }

  private def withFeature(f: Array[Double]): DenseData = DenseData.appendColumns(baseX, Seq(f), y)
}
