package repro.ml

/** Evaluation metrics used in the paper's tables: AUC (binary), macro F1
  * (multi-class) and RMSE (regression). [[Models.splitLoss]] turns each into
  * a minimization objective for the TPE search (1-AUC, 1-F1, RMSE).
  */
object Metrics {

  /** Area under the ROC curve via the rank statistic (ties share ranks).
    * `y` must be 0/1; returns 0.5 when one class is absent.
    */
  def auc(y: Array[Double], scores: Array[Double]): Double = {
    require(y.length == scores.length, "length mismatch")
    val nPos = y.count(_ > 0.5).toDouble
    val nNeg = y.length - nPos
    if (nPos == 0 || nNeg == 0) return 0.5
    val r = ranks(scores)
    var sumPosRanks = 0.0
    var i = 0
    while (i < y.length) { if (y(i) > 0.5) sumPosRanks += r(i); i += 1 }
    (sumPosRanks - nPos * (nPos + 1) / 2.0) / (nPos * nNeg)
  }

  /** Average ranks (1-based, ties averaged). Positions are ordered by
    * value under `java.lang.Double.compare`, ties by position, as a stable
    * sort by value orders them; runs of `==` values share a rank.
    */
  def ranks(values: Array[Double]): Array[Double] = {
    val order = RegressionTree.sortByRank(RegressionTree.denseRank(values), Array.range(0, values.length))
    val out = new Array[Double](values.length)
    var i = 0
    while (i < order.length) {
      var j = i
      while (j + 1 < order.length && values(order(j + 1)) == values(order(i))) j += 1
      val avg = (i + j + 2) / 2.0
      var k = i
      while (k <= j) { out(order(k)) = avg; k += 1 }
      i = j + 1
    }
    out
  }

  /** Macro-averaged F1 over classes 0..numClasses-1. Classes absent from
    * both truth and prediction contribute F1 = 0, matching scikit-learn's
    * default `zero_division=0` behaviour used by the paper's stack.
    */
  def macroF1(yTrue: Array[Int], yPred: Array[Int], numClasses: Int): Double = {
    require(yTrue.length == yPred.length, "length mismatch")
    var sum = 0.0
    var c = 0
    while (c < numClasses) {
      var tp = 0; var fp = 0; var fn = 0
      var i = 0
      while (i < yTrue.length) {
        if (yPred(i) == c && yTrue(i) == c) tp += 1
        else if (yPred(i) == c) fp += 1
        else if (yTrue(i) == c) fn += 1
        i += 1
      }
      val prec = if (tp + fp == 0) 0.0 else tp.toDouble / (tp + fp)
      val rec = if (tp + fn == 0) 0.0 else tp.toDouble / (tp + fn)
      sum += (if (prec + rec == 0) 0.0 else 2 * prec * rec / (prec + rec))
      c += 1
    }
    sum / numClasses
  }

  /** Root mean squared error. */
  def rmse(y: Array[Double], pred: Array[Double]): Double = {
    require(y.length == pred.length && y.nonEmpty, "need non-empty equal-length arrays")
    math.sqrt(y.indices.iterator.map(i => { val d = y(i) - pred(i); d * d }).sum / y.length)
  }

  /** The metric the paper reports for a task (higher-is-better noted by caller). */
  def taskMetric(task: Task, y: Array[Double], scores: Array[Array[Double]]): Double = task match {
    case BinaryClassification => auc(y, scores.map(_(0)))
    case MultiClassification(k) =>
      macroF1(y.map(_.toInt), scores.map(s => s.indices.maxBy(s(_))), k)
    case Regression => rmse(y, scores.map(_(0)))
  }

  /** True iff a larger metric value is better for this task. */
  def higherIsBetter(task: Task): Boolean = task != Regression
}
