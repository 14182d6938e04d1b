package repro.ml

import scala.util.Random

/** Random forest over [[RegressionTree]]s.
  *
  * Classification is handled by bagging regression trees on class-indicator
  * targets and averaging (probability forests): for binary tasks one
  * indicator, for multi-class one forest head per class, normalized to a
  * distribution. This gives calibrated-ish scores so AUC is meaningful,
  * which plain majority voting would not.
  */
final class RandomForestTrainer(task: Task, numTrees: Int, seed: Long) extends Trainer {
  import RandomForestTrainer._

  override def fit(data: DenseData): Predictor = {
    val ranks = RegressionTree.ranks(data.x)
    val heads = Task.headTargets(task, data.y).zipWithIndex.map { case (y, c) =>
      fitForest(data.x, ranks, y, seed + 1000L * c)
    }.toArray
    new Predictor {
      override def scores(x: Array[Double]): Array[Double] = {
        val raw = heads.map(h => h(x))
        task match {
          case MultiClassification(_) => Task.normalise(raw)
          case BinaryClassification   => raw.map(v => math.min(1.0, math.max(0.0, v)))
          case Regression             => raw
        }
      }
    }
  }

  /** Fit one bagged forest head and return its averaged prediction function.
    * Each bootstrap sample is presorted from `ranks` = [[RegressionTree.ranks]]
    * of `x` with one primitive sort per feature.
    */
  private def fitForest(x: Array[Array[Double]], ranks: Array[Array[Int]], y: Array[Double],
                        s: Long): Array[Double] => Double = {
    val rnd = new Random(s)
    val n = x.length
    val trees = (0 until numTrees).map { t =>
      val idx = Array.fill(n)(rnd.nextInt(n)) // bootstrap sample
      new RegressionTree(MaxDepth, FeatureFraction, s + 31L * t)
        .fit(idx.map(x), idx.map(y), RegressionTree.presort(ranks, idx))
    }.toArray
    row => trees.iterator.map(_.predict(row)).sum / numTrees
  }
}

object RandomForestTrainer {
  private[ml] val MaxDepth = 6
  private[ml] val FeatureFraction = 0.7 // the share of features each split considers
}
