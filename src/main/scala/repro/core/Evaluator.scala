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
  * concurrently). Each loss, proxy and feature key is computed exactly once
  * (a [[Memo]]), and every evaluation reaches the store through one
  * [[FeatureQueryExecutor.lookup]], which computes a missing column outside
  * the store's monitor: units that query at once do not wait for each other.
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
  /** The columns this evaluator executed, each also in the store. */
  private val columns = new Memo[String, Array[Double]]
  private lazy val trainValidY = DenseData.gather(y, split.trainValid)

  /** Feature queries this evaluator executed so far (for cost accounting);
    * columns another evaluator already put in a shared store do not count.
    */
  def queryExecutions: Int = columns.size
  /** Number of real (model-training) evaluations so far. */
  def realEvaluations: Int = losses.size

  def feature(q: QuerySpec): Array[Double] =
    FeatureQueryExecutor.lookup(featureStore, q)(columns(q.cacheKey)(executor.featureValues(q)))

  def realLoss(q: QuerySpec): Double = losses(q.cacheKey) {
    Models.splitLoss(modelKind, task, withFeature(feature(q)), split.train, split.valid, seed, fast = true)
  }

  def proxyScore(q: QuerySpec): Double = proxies(q.cacheKey) {
    val f = feature(q)
    proxy match {
      case MIProxy =>
        Association.mutualInformation(DenseData.gather(f, split.trainValid), trainValidY, task)
      case SCProxy =>
        Association.spearman(DenseData.gather(f, split.trainValid), trainValidY)
      case LRProxy =>
        // Fast LR on base + candidate; score = negative validation loss.
        -Models.splitLoss(LRModel, task, withFeature(f), split.train, split.valid, seed, fast = true)
    }
  }

  private def withFeature(f: Array[Double]): DenseData = DenseData.appendColumns(baseX, Seq(f), y)
}
