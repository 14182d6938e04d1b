package repro.proxy

import repro.ml.{BinaryClassification, MultiClassification, Regression, Task}

/** The equal-frequency binning and the MI sum as they were before
  * [[Association]] counted into arrays: a boxed sort, and cell counts in a
  * `HashMap[(Int, Int), Long]` updated row by row, whose iteration order
  * fixes the order of the sum. Tests check the primitive kernels against
  * them bit for bit.
  */
object ReferenceAssociation {

  def equalFreqBins(values: Array[Double]): Array[Int] = {
    require(values.nonEmpty, "no values to bin")
    val sorted = values.sorted
    val edges = (1 until Association.Bins)
      .map(b => sorted((b.toLong * (values.length - 1) / Association.Bins).toInt))
      .distinct
      .toArray
    values.map { v =>
      var b = 0
      while (b < edges.length && v > edges(b)) b += 1
      b
    }
  }

  def labelBins(y: Array[Double], task: Task): Array[Int] = task match {
    case BinaryClassification | MultiClassification(_) => y.map(_.toInt)
    case Regression                                    => equalFreqBins(y)
  }

  def mutualInformation(feature: Array[Double], y: Array[Double], task: Task): Double =
    miFromBins(equalFreqBins(feature), labelBins(y, task))

  def miFromBins(xb: Array[Int], yb: Array[Int]): Double = {
    val n = xb.length.toDouble
    val joint = scala.collection.mutable.HashMap.empty[(Int, Int), Long]
    val px = scala.collection.mutable.HashMap.empty[Int, Long]
    val py = scala.collection.mutable.HashMap.empty[Int, Long]
    var i = 0
    while (i < xb.length) {
      joint.update((xb(i), yb(i)), joint.getOrElse((xb(i), yb(i)), 0L) + 1)
      px.update(xb(i), px.getOrElse(xb(i), 0L) + 1)
      py.update(yb(i), py.getOrElse(yb(i), 0L) + 1)
      i += 1
    }
    joint.iterator.map { case ((x, yv), c) =>
      val pxy = c / n
      pxy * math.log(pxy / ((px(x) / n) * (py(yv) / n)))
    }.sum
  }
}
