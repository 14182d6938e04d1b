package repro.ml

import scala.util.Random
import repro.Parallel

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
    *
    * Every bootstrap sample is drawn from `rnd` first, in tree order; a tree
    * then reads only its sample and its seed, so the trees are fit through
    * [[Parallel.map]] and their predictions summed in tree order.
    */
  private def fitForest(x: Array[Array[Double]], ranks: Array[Array[Int]], y: Array[Double],
                        s: Long): Array[Double] => Double = {
    val rnd = new Random(s)
    val n = x.length
    val samples = Vector.fill(numTrees)(Array.fill(n)(rnd.nextInt(n)))
    val trees = Parallel.map(samples.zipWithIndex) { case (idx, t) =>
      new RegressionTree(MaxDepth, FeatureFraction, s + 31L * t)
        .fit(idx.map(x), DenseData.gather(y, idx), RegressionTree.presort(ranks, idx))
    }.toArray
    row => DenseData.sum(trees.length)(trees(_).predict(row)) / numTrees
  }
}

object RandomForestTrainer {
  private[ml] val MaxDepth = 6
  private[ml] val FeatureFraction = 0.7 // the share of features each split considers
}
