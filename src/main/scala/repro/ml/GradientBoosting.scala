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
final class GradientBoostingTrainer(
    task: Task,
    numTrees: Int = 25,
    maxDepth: Int = 3,
    learningRate: Double = 0.2,
    minSamplesLeaf: Int = 4,
    seed: Long = 17L,
) extends Trainer {

  /** One boosted head: base score + shrunken trees fit to gradients. */
  private final case class Head(base: Double, trees: Array[RegressionTree]) {
    def raw(row: Array[Double]): Double =
      base + trees.iterator.map(_.predict(row)).sum * learningRate
  }

  override def fit(data: DenseData): Predictor = {
    // Every tree of every head fits the same x, so one presort serves all.
    val order = RegressionTree.presort(data.x)
    val heads: Array[Head] = task match {
      case Regression           => Array(fitHead(data.x, order, data.y, logistic = false, seed))
      case BinaryClassification => Array(fitHead(data.x, order, data.y, logistic = true, seed))
      case MultiClassification(k) =>
        Array.tabulate(k) { c =>
          fitHead(data.x, order, data.y.map(v => if (v.toInt == c) 1.0 else 0.0), logistic = true, seed + 7919L * c)
        }
    }
    new Predictor {
      override def scores(row: Array[Double]): Array[Double] = task match {
        case Regression           => Array(heads(0).raw(row))
        case BinaryClassification => Array(sigmoid(heads(0).raw(row)))
        case MultiClassification(_) =>
          val p = heads.map(h => math.max(1e-9, sigmoid(h.raw(row))))
          val s = p.sum
          p.map(_ / s)
      }
    }
  }

  private def sigmoid(z: Double): Double = 1.0 / (1.0 + math.exp(-z))

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
        if (logistic) y(i) - sigmoid(f(i)) else y(i) - f(i)
      }
      val tree = new RegressionTree(maxDepth, minSamplesLeaf, featureFraction = 1.0, seed = s + 101L * t)
      tree.fit(x, grad, order)
      var i = 0
      while (i < n) { f(i) += learningRate * tree.predict(x(i)); i += 1 }
      trees(t) = tree
      t += 1
    }
    Head(base, trees)
  }
}
