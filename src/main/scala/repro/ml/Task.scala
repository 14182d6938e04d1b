package repro.ml

/** The supervised task a downstream model is trained for.
  *
  * The paper evaluates binary classification (AUC), multi-class
  * classification (macro F1) and regression (RMSE); the task drives both
  * the model head (sigmoid / softmax / identity) and the loss reported by
  * [[Models.splitLoss]].
  */
sealed trait Task

/** Binary classification; predictors emit P(y = 1). */
case object BinaryClassification extends Task

/** Multi-class classification with `numClasses` labels in 0..numClasses-1;
  * predictors emit one score per class.
  */
final case class MultiClassification(numClasses: Int) extends Task {
  require(numClasses >= 2, s"need >= 2 classes, got $numClasses")
}

/** Real-valued regression; predictors emit the predicted value. */
case object Regression extends Task

object Task {
  /** The target of each model head: `y` itself, or one 0/1 indicator per
    * class for a multi-class task (one-vs-rest).
    */
  def headTargets(task: Task, y: Array[Double]): Vector[Array[Double]] = task match {
    case MultiClassification(k) => Vector.tabulate(k)(c => y.map(v => if (v.toInt == c) 1.0 else 0.0))
    case _                      => Vector(y)
  }

  /** The logistic function: a binary head's P(y = 1) from its raw score. */
  def sigmoid(z: Double): Double = 1.0 / (1.0 + math.exp(-z))

  /** One-vs-rest head scores as a distribution: each clipped below at
    * 1e-9, then divided by their sum.
    */
  def normalise(scores: Array[Double]): Array[Double] = {
    val clipped = scores.map(v => math.max(1e-9, v))
    val s = clipped.sum
    clipped.map(_ / s)
  }
}

/** A dense supervised dataset held on the driver.
  *
  * FeatAug's search loop trains hundreds of small models on the augmented
  * training table (a few thousand rows after aggregation), so models run
  * driver-side over plain arrays; Spark executes the feature queries that
  * *produce* these matrices.
  */
final case class DenseData(x: Array[Array[Double]], y: Array[Double]) {
  require(x.length == y.length, s"x rows ${x.length} != y rows ${y.length}")
  def numRows: Int = x.length
  def numCols: Int = if (x.isEmpty) 0 else x(0).length
  def select(idx: Array[Int]): DenseData = DenseData(idx.map(x), DenseData.gather(y, idx))
}

object DenseData {
  /** `idx.map(values)` without boxing: the values at `idx`, in its order. */
  def gather(values: Array[Double], idx: Array[Int]): Array[Double] = {
    val out = new Array[Double](idx.length)
    var i = 0
    while (i < idx.length) { out(i) = values(idx(i)); i += 1 }
    out
  }

  /** `(0 until n).iterator.map(term).sum` without boxing. Like `Iterator.sum`
    * over a known size, it starts at the first term, not at 0.0, so a sum of
    * -0.0 terms stays -0.0; it adds in order i = 0, 1, ...; 0.0 when n = 0.
    */
  def sum(n: Int)(term: Int => Double): Double = {
    if (n == 0) return 0.0
    var s = term(0)
    var i = 1
    while (i < n) { s += term(i); i += 1 }
    s
  }

  /** The base matrix with feature columns appended: row i is `base(i)`
    * followed by each column's i-th value, in column order. Each row is one
    * array copy, so the one-column call of the search loop allocates
    * nothing else per row.
    */
  def appendColumns(base: Array[Array[Double]], columns: Seq[Array[Double]], y: Array[Double]): DenseData = {
    val cols = columns.toArray
    DenseData(Array.tabulate(base.length) { i =>
      val row = java.util.Arrays.copyOf(base(i), base(i).length + cols.length)
      var j = 0
      while (j < cols.length) { row(base(i).length + j) = cols(j)(i); j += 1 }
      row
    }, y)
  }
}

/** Per-column standardization (mean 0, stddev 1) fit on train rows only. */
final class Standardizer(mean: Array[Double], std: Array[Double]) {
  def transform(x: Array[Array[Double]]): Array[Array[Double]] = x.map(transformRow)

  def transformRow(row: Array[Double]): Array[Double] = {
    val z = new Array[Double](row.length)
    var j = 0
    while (j < row.length) { z(j) = (row(j) - mean(j)) / std(j); j += 1 }
    z
  }
}

object Standardizer {
  /** Fit a standardizer; zero-variance columns get std 1 so they map to 0. */
  def fit(x: Array[Array[Double]]): Standardizer = {
    val n = math.max(1, x.length)
    val m = if (x.isEmpty) 0 else x(0).length
    val mean, std = new Array[Double](m)
    for (j <- 0 until m) {
      mean(j) = DenseData.sum(x.length)(i => x(i)(j)) / n
      val s = math.sqrt(DenseData.sum(x.length)(i => { val d = x(i)(j) - mean(j); d * d }) / n)
      std(j) = if (s < 1e-12) 1.0 else s
    }
    new Standardizer(mean, std)
  }
}
