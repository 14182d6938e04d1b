package repro.proxy

import repro.ml.{BinaryClassification, Metrics, MultiClassification, Regression, Task}

/** Low-cost feature/label association scores.
  *
  * These drive (1) FeatAug's warm-up proxy task and QTI's template
  * effectiveness proxy (MI, Spearman — Section V-C, VI-C, Table VIII) and
  * (2) the Featuretools+Selector baselines (MI / Chi2 / Gini). All scores
  * are "higher is better". Continuous variables are discretized with
  * equal-frequency binning over observed values into [[Bins]] bins.
  */
object Association {

  private[proxy] val Bins = 10

  /** Equal-frequency bin ids (0 until [[Bins]]). Constant columns map to bin 0;
    * ties share a bin (bin edges are quantile values).
    */
  def equalFreqBins(values: Array[Double]): Array[Int] = {
    require(values.nonEmpty, "no values to bin")
    val sorted = values.sorted
    val edges = (1 until Bins)
      .map(b => sorted((b.toLong * (values.length - 1) / Bins).toInt))
      .distinct
      .toArray
    values.map { v =>
      var b = 0
      while (b < edges.length && v > edges(b)) b += 1
      b
    }
  }

  /** Label discretization per task: class ids for classification,
    * equal-frequency bins for regression.
    */
  def labelBins(y: Array[Double], task: Task): Array[Int] = task match {
    case BinaryClassification | MultiClassification(_) => y.map(_.toInt)
    case Regression                                    => equalFreqBins(y)
  }

  /** Mutual information (nats) between binned feature and binned label. */
  def mutualInformation(feature: Array[Double], y: Array[Double], task: Task): Double = {
    require(feature.length == y.length && feature.nonEmpty, "aligned non-empty inputs required")
    miFromBins(equalFreqBins(feature), labelBins(y, task))
  }

  /** MI over pre-binned variables. */
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

  /** |Spearman rank correlation| between feature and label. */
  def spearman(feature: Array[Double], y: Array[Double]): Double = {
    require(feature.length == y.length && feature.length >= 2, "need >= 2 aligned rows")
    math.abs(pearson(Metrics.ranks(feature), Metrics.ranks(y)))
  }

  private def pearson(a: Array[Double], b: Array[Double]): Double = {
    val n = a.length
    val ma = a.sum / n; val mb = b.sum / n
    var cov = 0.0; var va = 0.0; var vb = 0.0
    var i = 0
    while (i < n) {
      val da = a(i) - ma; val db = b(i) - mb
      cov += da * db; va += da * da; vb += db * db
      i += 1
    }
    if (va < 1e-12 || vb < 1e-12) 0.0 else cov / math.sqrt(va * vb)
  }

  /** Chi-square statistic between binned feature and class label
    * (classification selectors only).
    */
  def chi2(feature: Array[Double], y: Array[Double]): Double = {
    val xb = equalFreqBins(feature)
    val yb = y.map(_.toInt)
    val n = xb.length.toDouble
    // Dense (bin, class) counts. A bin or class that no row has sums to 0,
    // so its cells have e = 0 and are skipped, as if it were not there.
    val obs = Array.fill(xb.max + 1, yb.max + 1)(0.0)
    var i = 0
    while (i < xb.length) { obs(xb(i))(yb(i)) += 1.0; i += 1 }
    val rowSum = obs.map(_.sum)
    val colSum = obs(0).indices.map(j => obs.map(_(j)).sum)
    var stat = 0.0
    for (r <- obs.indices; c <- colSum.indices) {
      val e = rowSum(r) * colSum(c) / n
      if (e > 0) { val d = obs(r)(c) - e; stat += d * d / e }
    }
    stat
  }

  /** Gini-impurity decrease of the label when partitioned by feature bins
    * (classification selectors only).
    */
  def giniGain(feature: Array[Double], y: Array[Double]): Double = {
    val xb = equalFreqBins(feature)
    val yb = y.map(_.toInt)
    def gini(idx: Seq[Int]): Double = {
      if (idx.isEmpty) 0.0
      else {
        val counts = idx.groupBy(yb(_)).values.map(_.size.toDouble)
        1.0 - counts.map(c => { val p = c / idx.size; p * p }).sum
      }
    }
    val all = yb.indices
    val parent = gini(all)
    val children = all.groupBy(xb(_)).values
    parent - children.map(g => g.size.toDouble / all.size * gini(g)).sum
  }
}

/** Which low-cost proxy FeatAug uses (paper Table VIII). */
sealed trait ProxyKind { def name: String }
case object MIProxy extends ProxyKind { val name = "MI" }
case object SCProxy extends ProxyKind { val name = "SC" }
case object LRProxy extends ProxyKind { val name = "LR" }
