package repro.ml

/** [[Metrics.ranks]], [[Metrics.auc]] and the Spearman proxy as they were
  * before ranks ordered positions with a counting sort: a boxed stable
  * `sortBy` on the values, and AUC's positive ranks summed through a
  * filtered iterator. Tests check the primitive kernels against them bit
  * for bit.
  */
object ReferenceMetrics {

  def ranks(values: Array[Double]): Array[Double] = {
    val order = values.indices.sortBy(values(_))
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

  def auc(y: Array[Double], scores: Array[Double]): Double = {
    val nPos = y.count(_ > 0.5).toDouble
    val nNeg = y.length - nPos
    if (nPos == 0 || nNeg == 0) return 0.5
    val r = ranks(scores)
    val sumPosRanks = y.indices.iterator.filter(y(_) > 0.5).map(r(_)).sum
    (sumPosRanks - nPos * (nPos + 1) / 2.0) / (nPos * nNeg)
  }

  /** `Association.spearman` over these ranks. */
  def spearman(feature: Array[Double], y: Array[Double]): Double =
    math.abs(pearson(ranks(feature), ranks(y)))

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
}
