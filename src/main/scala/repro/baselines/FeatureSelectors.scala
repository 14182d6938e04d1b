package repro.baselines

import repro.ml._
import repro.proxy.Association

/** The seven feature selectors paired with Featuretools in the paper's
  * baselines (Section VII-A.3). Each selects `k` features from a candidate
  * pool given the base features and labels. Filter selectors (MI / Chi2 /
  * Gini) score features independently; embedded selectors (LR / GBDT) rank
  * by model importances; wrapper selectors (Forward / Backward) greedily
  * optimize the downstream model's validation metric.
  */
object FeatureSelectors {

  sealed trait Selector { def name: String }
  case object LRSel extends Selector { val name = "FT+LR" }
  case object GBDTSel extends Selector { val name = "FT+GDBT" } // paper's table spelling
  case object MISel extends Selector { val name = "FT+MI" }
  case object Chi2Sel extends Selector { val name = "FT+Chi2" }
  case object GiniSel extends Selector { val name = "FT+Gini" }
  case object ForwardSel extends Selector { val name = "FT+Forward" }
  case object BackwardSel extends Selector { val name = "FT+Backward" }

  val all: Vector[Selector] = Vector(LRSel, GBDTSel, MISel, Chi2Sel, GiniSel, ForwardSel, BackwardSel)

  private val WrapperPool = 44   // Forward/Backward search the top candidates by MI
  private val MaxTrainRows = 350 // evalSet's train and validation subsamples
  private val MaxValidRows = 250

  /** True when the selector applies to the task (Chi2/Gini are
    * classification-only — the paper leaves those cells blank for the
    * regression dataset).
    */
  def supports(sel: Selector, task: Task): Boolean = (sel, task) match {
    case (Chi2Sel | GiniSel, Regression) => false
    case _                               => true
  }

  /** Select `k` candidate indices. Wrapper selectors train `modelKind` in
    * fast mode; scores use train+valid rows only (never test).
    */
  def select(
      sel: Selector,
      base: Array[Array[Double]],
      candidates: Vector[Array[Double]],
      y: Array[Double],
      task: Task,
      modelKind: ModelKind,
      split: Splits.Split,
      k: Int,
      seed: Long = 7L,
  ): Vector[Int] = {
    val fitRows = split.train ++ split.valid
    def scoreBy(f: Array[Double] => Double): Vector[Int] =
      candidates.indices.sortBy(i => -f(fitRows.map(candidates(i)))).take(k).toVector
    val yFit = fitRows.map(y)

    sel match {
      case MISel   => scoreBy(fv => Association.mutualInformation(fv, yFit, task))
      case Chi2Sel => scoreBy(fv => Association.chi2(fv, yFit))
      case GiniSel => scoreBy(fv => Association.giniGain(fv, yFit))
      case LRSel   => byLrImportance(base, candidates, y, task, split, k, seed)
      case GBDTSel => byTreeImportance(base, candidates, y, task, split, k, seed)
      case ForwardSel =>
        forward(base, candidates, y, task, modelKind, split, k, seed)
      case BackwardSel =>
        backward(base, candidates, y, task, modelKind, split, k, seed)
    }
  }

  /** |weight| of each candidate column in a linear model over base+all
    * candidates (standardized internally, so magnitudes are comparable).
    */
  private def byLrImportance(base: Array[Array[Double]], candidates: Vector[Array[Double]],
                             y: Array[Double], task: Task, split: Splits.Split,
                             k: Int, seed: Long): Vector[Int] = {
    val data = DenseData.appendColumns(base, candidates, y)
    val train = data.select(split.train)
    val trainer: Trainer = task match {
      case Regression => new RidgeRegressionTrainer()
      case t          => new LogisticRegressionTrainer(t, epochs = 80, seed = seed)
    }
    val pred = trainer.fit(train)
    // Probe sensitivity: |Δscore| when perturbing each candidate column by
    // one (standardized) unit at the column means — equals |w| for linear
    // models without reaching into their internals.
    val means = Array.tabulate(train.numCols)(j => train.x.map(_(j)).sum / train.numRows)
    val stds = Array.tabulate(train.numCols) { j =>
      val v = train.x.map(r => math.pow(r(j) - means(j), 2)).sum / train.numRows
      math.max(1e-9, math.sqrt(v))
    }
    val base0 = pred.scores(means)
    val imp = candidates.indices.map { ci =>
      val j = base(0).length + ci
      val probe = means.clone(); probe(j) += stds(j)
      val s = pred.scores(probe)
      s.indices.map(c => math.abs(s(c) - base0(c))).sum
    }
    candidates.indices.sortBy(i => -imp(i)).take(k).toVector
  }

  /** Split-count importances from a small boosted-tree ensemble fit on
    * base+candidates (the "GBDT selector").
    */
  private def byTreeImportance(base: Array[Array[Double]], candidates: Vector[Array[Double]],
                               y: Array[Double], task: Task, split: Splits.Split,
                               k: Int, seed: Long): Vector[Int] = {
    val data = DenseData.appendColumns(base, candidates, y).select(split.train)
    val order = RegressionTree.presort(data.x)
    val imp = new Array[Double](data.numCols)
    Task.headTargets(task, data.y).zipWithIndex.foreach { case (t, ti) =>
      val resid = t.clone()
      var round = 0
      while (round < 8) {
        val tree = new RegressionTree(maxDepth = 3, seed = seed + 97L * (ti * 8 + round))
        tree.fit(data.x, resid, order)
        tree.addImportance(imp)
        var i = 0
        while (i < resid.length) { resid(i) -= 0.3 * tree.predict(data.x(i)); i += 1 }
        round += 1
      }
    }
    val nb = base(0).length
    candidates.indices.sortBy(i => -imp(nb + i)).take(k).toVector
  }

  /** Greedy forward selection on validation metric; the candidate pool is
    * pre-trimmed to [[WrapperPool]] by MI to bound model fits.
    */
  private def forward(base: Array[Array[Double]], candidates: Vector[Array[Double]],
                      y: Array[Double], task: Task, modelKind: ModelKind, split: Splits.Split,
                      k: Int, seed: Long): Vector[Int] = {
    val pool = poolByMi(candidates, y, task, split)
    val selected = scala.collection.mutable.ArrayBuffer.empty[Int]
    val remaining = scala.collection.mutable.LinkedHashSet(pool: _*)
    while (selected.size < math.min(k, pool.size)) {
      val best = remaining.maxBy { c =>
        evalSet(base, candidates, selected.toVector :+ c, y, task, modelKind, split, seed)
      }
      selected += best
      remaining -= best
    }
    selected.toVector
  }

  /** Backward elimination from the (MI-trimmed) pool down to `k`. */
  private def backward(base: Array[Array[Double]], candidates: Vector[Array[Double]],
                       y: Array[Double], task: Task, modelKind: ModelKind, split: Splits.Split,
                       k: Int, seed: Long): Vector[Int] = {
    val pool = poolByMi(candidates, y, task, split)
    val selected = scala.collection.mutable.ArrayBuffer(pool: _*)
    while (selected.size > k) {
      // Remove the feature whose removal yields the best remaining metric.
      val worst = selected.maxBy { c =>
        evalSet(base, candidates, selected.toVector.filterNot(_ == c), y, task, modelKind, split, seed)
      }
      selected -= worst
    }
    selected.toVector
  }

  private def poolByMi(candidates: Vector[Array[Double]], y: Array[Double], task: Task,
                       split: Splits.Split): Vector[Int] = {
    val rowsIdx = split.train ++ split.valid
    val yFit = rowsIdx.map(y)
    candidates.indices
      .sortBy(i => -Association.mutualInformation(rowsIdx.map(candidates(i)), yFit, task))
      .take(WrapperPool).toVector
  }

  /** Validation metric (higher better; RMSE negated) of base + chosen set.
    *
    * Wrapper selectors and the RL baselines call this thousands of times,
    * so rows are capped to a deterministic subsample (the split arrays are
    * already shuffled) — a standard wrapper-selection speedup that leaves
    * the selection semantics intact.
    */
  def evalSet(base: Array[Array[Double]], candidates: Vector[Array[Double]], chosen: Vector[Int],
              y: Array[Double], task: Task, modelKind: ModelKind, split: Splits.Split,
              seed: Long): Double = {
    val data = DenseData.appendColumns(base, chosen.map(candidates), y)
    val m = Models.splitMetric(modelKind, task, data,
      split.train.take(MaxTrainRows), split.valid.take(MaxValidRows), seed, fast = true)
    if (Metrics.higherIsBetter(task)) m else -m
  }
}
