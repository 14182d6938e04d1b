package repro.ml

/** Gradient-boosted regression trees — the reproduction's stand-in for the
  * paper's XGBoost downstream model (no XGBoost artifact is available
  * offline; classic GBT with shrinkage preserves the model family:
  * additive trees fit to loss gradients).
  *
  *  - regression: squared loss, trees fit to residuals
  *  - binary: logistic loss, trees fit to (y - sigmoid(F)), sigmoid head
  *  - multi-class: one-vs-rest logistic boosters, softmax-free normalized head
  */
final class GradientBoostingTrainer(task: Task, numTrees: Int, seed: Long) extends Trainer {
  import GradientBoostingTrainer._

  override def fit(data: DenseData): Predictor = {
    // Every tree of every head fits the same x, so one presort serves all.
    val order = RegressionTree.presort(data.x)
    val heads = Task.headTargets(task, data.y).zipWithIndex.map { case (y, c) =>
      fitHead(data.x, order, y, logistic = task != Regression, seed + 7919L * c)
    }.toArray
    new Predictor {
      override def scores(row: Array[Double]): Array[Double] = task match {
        case Regression             => Array(heads(0).raw(row))
        case BinaryClassification   => Array(Task.sigmoid(heads(0).raw(row)))
        case MultiClassification(_) => Task.normalise(heads.map(h => Task.sigmoid(h.raw(row))))
      }
    }
  }

  private def fitHead(x: Array[Array[Double]], order: Array[Array[Int]], y: Array[Double],
                      logistic: Boolean, s: Long): Head = {
    val n = x.length
    val base =
      if (!logistic) y.sum / n
      else {
        val p = math.min(1 - 1e-6, math.max(1e-6, y.sum / n))
        math.log(p / (1 - p))
      }
    val f = Array.fill(n)(base)
    val trees = new Array[RegressionTree](numTrees)
    var t = 0
    while (t < numTrees) {
      val grad = Array.tabulate(n) { i =>
        if (logistic) y(i) - Task.sigmoid(f(i)) else y(i) - f(i)
      }
      val tree = new RegressionTree(MaxDepth, featureFraction = 1.0, seed = s + 101L * t)
      tree.fit(x, grad, order)
      var i = 0
      while (i < n) { f(i) += LearningRate * tree.predict(x(i)); i += 1 }
      trees(t) = tree
      t += 1
    }
    Head(base, trees)
  }
}

object GradientBoostingTrainer {
  private[ml] val MaxDepth = 3
  private[ml] val LearningRate = 0.2 // shrinkage of every tree's output

  /** One boosted head: base score + shrunken trees fit to gradients. */
  private final case class Head(base: Double, trees: Array[RegressionTree]) {
    def raw(row: Array[Double]): Double =
      base + trees.iterator.map(_.predict(row)).sum * LearningRate
  }
}
