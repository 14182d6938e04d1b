package repro.ml

import scala.util.Random

/** The four downstream model families evaluated by the paper. */
sealed trait ModelKind { def name: String }
case object LRModel extends ModelKind { val name = "LR" }
case object XGBModel extends ModelKind { val name = "XGB" }
case object RFModel extends ModelKind { val name = "RF" }
case object DeepFMModel extends ModelKind { val name = "DeepFM" }

/** Model factory. `fast = true` trims budgets for the loops that fit
  * hundreds or thousands of models: the FeatAug search, the
  * forward/backward selectors and the RL baselines. Final test-split
  * evaluations use full budgets.
  */
object Models {
  def trainer(kind: ModelKind, task: Task, seed: Long, fast: Boolean): Trainer =
    kind match {
      case LRModel =>
        task match {
          case Regression => new RidgeRegressionTrainer()
          case t          => new LogisticRegressionTrainer(t, epochs = if (fast) 50 else 150, seed = seed)
        }
      case XGBModel =>
        new GradientBoostingTrainer(task, numTrees = if (fast) 8 else 25, seed = seed)
      case RFModel =>
        new RandomForestTrainer(task, numTrees = if (fast) 6 else 15, seed = seed)
      case DeepFMModel =>
        new DeepFMTrainer(task, epochs = if (fast) 4 else 25, seed = seed)
    }

  /** [[splitMetric]] as a minimization objective: RMSE as is, else 1 - metric. */
  def splitLoss(kind: ModelKind, task: Task, data: DenseData,
                trainIdx: Array[Int], evalIdx: Array[Int],
                seed: Long, fast: Boolean): Double = {
    val m = splitMetric(kind, task, data, trainIdx, evalIdx, seed, fast)
    if (Metrics.higherIsBetter(task)) 1.0 - m else m
  }

  /** Fit on the train split and return the task *metric* on the eval split. */
  def splitMetric(kind: ModelKind, task: Task, data: DenseData,
                  trainIdx: Array[Int], evalIdx: Array[Int],
                  seed: Long, fast: Boolean): Double = {
    val pred = trainer(kind, task, seed, fast).fit(data.select(trainIdx))
    val ev = data.select(evalIdx)
    Metrics.taskMetric(task, ev.y, pred.scoresAll(ev.x))
  }
}

/** Deterministic 0.6 / 0.2 / 0.2 row split, matching the paper's
  * train/valid/test ratio.
  */
object Splits {
  final case class Split(train: Array[Int], valid: Array[Int], test: Array[Int]) {
    /** The rows a search may read, train then valid: every proxy score,
      * selector and baseline fits on these; only the final metric reads
      * `test`.
      */
    lazy val trainValid: Array[Int] = train ++ valid
  }

  def threeWay(n: Int, seed: Long): Split = {
    val idx = (0 until n).toArray
    shuffle(idx, new Random(seed))
    val nTrain = (n * 0.6).toInt
    val nValid = (n * 0.2).toInt
    Split(idx.slice(0, nTrain), idx.slice(nTrain, nTrain + nValid), idx.slice(nTrain + nValid, n))
  }

  /** Fisher–Yates shuffle of `a` in place, drawing from the last position down. */
  def shuffle(a: Array[Int], rnd: Random): Unit = {
    var i = a.length
    while (i > 1) { i -= 1; val j = rnd.nextInt(i + 1); val t = a(i); a(i) = a(j); a(j) = t }
  }
}
