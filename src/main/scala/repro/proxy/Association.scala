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
    // The order of `java.lang.Double.compare`, as a sort by value gives it.
    val sorted = values.clone()
    java.util.Arrays.sort(sorted)
    val edges = (1 until Bins)
      .map(b => sorted((b.toLong * (values.length - 1) / Bins).toInt))
      .distinct
      .toArray
    val bins = new Array[Int](values.length)
    var i = 0
    while (i < values.length) {
      var b = 0
      while (b < edges.length && values(i) > edges(b)) b += 1
      bins(i) = b
      i += 1
    }
    bins
  }

  /** Label discretization per task: class ids for classification,
    * equal-frequency bins for regression.
    */
  def labelBins(y: Array[Double], task: Task): Array[Int] = task match {
    case BinaryClassification | MultiClassification(_) => classIds(y)
    case Regression                                    => equalFreqBins(y)
  }

  /** Class labels as ids. */
  private def classIds(y: Array[Double]): Array[Int] = {
    val ids = new Array[Int](y.length)
    var i = 0
    while (i < y.length) { ids(i) = y(i).toInt; i += 1 }
    ids
  }

  /** Mutual information (nats) between binned feature and binned label. */
  def mutualInformation(feature: Array[Double], y: Array[Double], task: Task): Double = {
    require(feature.length == y.length && feature.nonEmpty, "aligned non-empty inputs required")
    miFromBins(equalFreqBins(feature), labelBins(y, task))
  }

  /** MI over pre-binned variables, bins being small non-negative ids.
    *
    * Rows are counted into arrays, but the terms are summed in the order in
    * which a `HashMap[(Int, Int), Long]` of the cell counts iterates, as
    * this sum always was: its last bit depends on that order. The order
    * follows the map's table size, and a map counted row by row grows its
    * table on an update of a counted cell just as on an insert. So the map
    * gets the non-zero cells in first-seen order, plus one more update when
    * a row comes after the last new cell, and ends with the same table.
    */
  def miFromBins(xb: Array[Int], yb: Array[Int]): Double = {
    require(xb.length == yb.length, "aligned inputs required")
    val n = xb.length.toDouble
    val px = new Array[Long](idCount(xb))
    val py = new Array[Long](idCount(yb))
    val ny = py.length
    val joint = new Array[Long](px.length * ny)
    val firstSeen = new Array[Int](joint.length)
    var cells = 0
    var lastNew = -1
    var i = 0
    while (i < xb.length) {
      val c = xb(i) * ny + yb(i)
      if (joint(c) == 0) { firstSeen(cells) = c; cells += 1; lastNew = i }
      joint(c) += 1
      px(xb(i)) += 1
      py(yb(i)) += 1
      i += 1
    }
    val ordered = scala.collection.mutable.HashMap.empty[(Int, Int), Long]
    var j = 0
    while (j < cells) { val c = firstSeen(j); ordered.update((c / ny, c % ny), joint(c)); j += 1 }
    if (lastNew < xb.length - 1) {
      val c = firstSeen(cells - 1)
      ordered.update((c / ny, c % ny), joint(c))
    }
    ordered.iterator.map { case ((x, yv), c) =>
      val pxy = c / n
      pxy * math.log(pxy / ((px(x) / n) * (py(yv) / n)))
    }.sum
  }

  /** One more than the largest id of `bins`; 0 for none. */
  private def idCount(bins: Array[Int]): Int = {
    var max = -1
    var i = 0
    while (i < bins.length) { max = math.max(max, bins(i)); i += 1 }
    max + 1
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
    val yb = classIds(y)
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
    val yb = classIds(y)
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
