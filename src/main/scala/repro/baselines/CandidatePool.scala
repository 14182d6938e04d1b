package repro.baselines

import repro.ml._

/** The candidate feature columns a baseline selects from, next to the base
  * features and labels: candidate `c` is column [[at]]`(c)` of [[trainData]].
  * It holds the train and validation row ids only, so no baseline can read
  * the test split.
  */
final case class CandidatePool(
    base: Array[Array[Double]],
    columns: Vector[Array[Double]],
    y: Array[Double],
    task: Task,
    train: Array[Int],
    valid: Array[Int],
) {

  /** Candidate `c`'s column in [[trainData]] (`extra(i)` is `at(columns.size + i)`). */
  def at(c: Int): Int = base(0).length + c

  /** The train rows of the base features, then every candidate, then `extra`. */
  def trainData(extra: Seq[Array[Double]]): DenseData =
    DenseData.appendColumns(base, columns ++ extra, y).select(train)

  /** The `k` candidates of highest `score`, each candidate scored once; equal
    * scores keep pool order.
    */
  def top(k: Int)(score: Int => Double): Vector[Int] = {
    val scores = columns.indices.map(score)
    columns.indices.sortBy(c => -scores(c)).take(k).toVector
  }

  /** [[top]] by the association of a candidate's values with the labels,
    * over the train then validation rows.
    */
  def topByAssociation(k: Int)(assoc: (Array[Double], Array[Double]) => Double): Vector[Int] = {
    val rows = train ++ valid
    val yFit = rows.map(y)
    top(k)(c => assoc(rows.map(columns(c)), yFit))
  }

  /** Validation metric (higher better; RMSE negated) of base + chosen set.
    *
    * Wrapper selectors and the RL baselines call this thousands of times,
    * so rows are capped to a deterministic subsample (the split arrays are
    * already shuffled) — a standard wrapper-selection speedup that leaves
    * the selection semantics intact.
    */
  def evalSet(chosen: Vector[Int], modelKind: ModelKind, seed: Long): Double = {
    val data = DenseData.appendColumns(base, chosen.map(columns), y)
    val m = Models.splitMetric(modelKind, task, data,
      train.take(CandidatePool.MaxTrainRows), valid.take(CandidatePool.MaxValidRows), seed, fast = true)
    if (Metrics.higherIsBetter(task)) m else -m
  }
}

object CandidatePool {
  private val MaxTrainRows = 350 // evalSet's train and validation subsamples
  private val MaxValidRows = 250
}
