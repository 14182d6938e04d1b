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
final class RandomForestTrainer(
    task: Task,
    numTrees: Int = 15,
    maxDepth: Int = 6,
    minSamplesLeaf: Int = 4,
    featureFraction: Double = 0.7,
    seed: Long = 13L,
) extends Trainer {

  override def fit(data: DenseData): Predictor = {
    val ranks = RegressionTree.ranks(data.x)
    val heads: Array[Array[Double] => Double] = task match {
      case Regression           => Array(fitForest(data.x, ranks, data.y, seed))
      case BinaryClassification => Array(fitForest(data.x, ranks, data.y, seed))
      case MultiClassification(k) =>
        Array.tabulate(k) { c =>
          fitForest(data.x, ranks, data.y.map(v => if (v.toInt == c) 1.0 else 0.0), seed + 1000L * c)
        }
    }
    new Predictor {
      override def scores(x: Array[Double]): Array[Double] = {
        val raw = heads.map(h => h(x))
        task match {
          case MultiClassification(_) =>
            val clipped = raw.map(v => math.max(1e-9, v))
            val s = clipped.sum
            clipped.map(_ / s)
          case BinaryClassification => raw.map(v => math.min(1.0, math.max(0.0, v)))
          case Regression           => raw
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
      new RegressionTree(maxDepth, minSamplesLeaf, featureFraction, s + 31L * t)
        .fit(idx.map(x), idx.map(y), RegressionTree.presort(ranks, idx))
    }.toArray
    row => trees.iterator.map(_.predict(row)).sum / numTrees
  }
}
