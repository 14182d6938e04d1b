package repro.baselines

import repro.ml._
import repro.proxy.Association

/** The seven feature selectors paired with Featuretools in the paper's
  * baselines (Section VII-A.3). Each selects `k` features from a
  * [[CandidatePool]]. Filter selectors (MI / Chi2 / Gini) score features
  * independently; embedded selectors (LR / GBDT) rank by model
  * importances; wrapper selectors (Forward / Backward) greedily optimize
  * the downstream model's validation metric.
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

  private val WrapperPool = 44 // Forward/Backward search the top candidates by MI

  /** True when the selector applies to the task (Chi2/Gini are
    * classification-only — the paper leaves those cells blank for the
    * regression dataset).
    */
  def supports(sel: Selector, task: Task): Boolean = (sel, task) match {
    case (Chi2Sel | GiniSel, Regression) => false
    case _                               => true
  }

  /** Select `k` candidate indices. Wrapper selectors train `modelKind` in
    * fast mode.
    */
  def select(sel: Selector, pool: CandidatePool, modelKind: ModelKind, k: Int, seed: Long = 7L): Vector[Int] =
    sel match {
      case MISel       => pool.topByAssociation(k)(Association.mutualInformation(_, _, pool.task))
      case Chi2Sel     => pool.topByAssociation(k)(Association.chi2)
      case GiniSel     => pool.topByAssociation(k)(Association.giniGain)
      case LRSel       => byLrImportance(pool, k, seed)
      case GBDTSel     => byTreeImportance(pool, k, seed)
      case ForwardSel  => forward(pool, modelKind, k, seed)
      case BackwardSel => backward(pool, modelKind, k, seed)
    }

  /** Sensitivity of a linear model over base+all candidates to each
    * candidate column (standardized internally, so magnitudes are
    * comparable).
    */
  private def byLrImportance(pool: CandidatePool, k: Int, seed: Long): Vector[Int] = {
    val train = pool.trainData(Nil)
    val trainer: Trainer = pool.task match {
      case Regression => new RidgeRegressionTrainer()
      case t          => new LogisticRegressionTrainer(t, epochs = 80, seed = seed)
    }
    val pred = trainer.fit(train)
    // Probe sensitivity: |Δscore| when perturbing each candidate column by
    // one (standardized) unit at the column means, summed over the heads.
    // With w the column's standardized weight and z̄ the score at the means,
    // that is |w| for ridge's identity head but |σ(z̄ + w) − σ(z̄)| for a
    // sigmoid head, which depends on the sign of w (softmax: every class).
    val (n, x) = (train.numRows, train.x)
    val means, stds = new Array[Double](train.numCols)
    for (j <- means.indices) {
      means(j) = DenseData.sum(n)(x(_)(j)) / n
      // d * d is what `math.pow(d, 2)` returns, in HotSpot's intrinsic and in fdlibm
      stds(j) = math.max(1e-9, math.sqrt(DenseData.sum(n)(i => { val d = x(i)(j) - means(j); d * d }) / n))
    }
    val base0 = pred.scores(means)
    pool.top(k) { c =>
      val j = pool.at(c)
      val probe = means.clone(); probe(j) += stds(j)
      val s = pred.scores(probe)
      s.indices.map(h => math.abs(s(h) - base0(h))).sum
    }
  }

  /** Split-count importances from a small boosted-tree ensemble fit on
    * base+candidates (the "GBDT selector").
    */
  private def byTreeImportance(pool: CandidatePool, k: Int, seed: Long): Vector[Int] = {
    val data = pool.trainData(Nil)
    val order = RegressionTree.presort(data.x)
    val imp = new Array[Double](data.numCols)
    Task.headTargets(pool.task, data.y).zipWithIndex.foreach { case (t, ti) =>
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
    pool.top(k)(c => imp(pool.at(c)))
  }

  /** Greedy forward selection on validation metric; the candidate pool is
    * pre-trimmed to [[WrapperPool]] by MI to bound model fits.
    */
  private def forward(pool: CandidatePool, modelKind: ModelKind, k: Int, seed: Long): Vector[Int] = {
    val trimmed = select(MISel, pool, modelKind, WrapperPool)
    val selected = scala.collection.mutable.ArrayBuffer.empty[Int]
    val remaining = scala.collection.mutable.LinkedHashSet(trimmed: _*)
    while (selected.size < math.min(k, trimmed.size)) {
      val best = remaining.maxBy(c => pool.evalSet(selected.toVector :+ c, modelKind, seed))
      selected += best
      remaining -= best
    }
    selected.toVector
  }

  /** Backward elimination from the (MI-trimmed) pool down to `k`. */
  private def backward(pool: CandidatePool, modelKind: ModelKind, k: Int, seed: Long): Vector[Int] = {
    val selected = scala.collection.mutable.ArrayBuffer(select(MISel, pool, modelKind, WrapperPool): _*)
    while (selected.size > k) {
      // Remove the feature whose removal yields the best remaining metric.
      val worst = selected.maxBy(c => pool.evalSet(selected.toVector.filterNot(_ == c), modelKind, seed))
      selected -= worst
    }
    selected.toVector
  }
}
