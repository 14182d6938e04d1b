package repro.ml

import scala.util.Random

/** CART regression tree fit to real-valued targets by variance reduction.
  *
  * The tree is the shared building block: random forests bag
  * classification/regression trees over class indicators, and the gradient
  * booster fits trees to pseudo-residuals. Splits are exact greedy on a
  * random subset of features (`featureFraction`), over the midpoints between
  * neighbouring distinct values.
  *
  * The scan uses presorted attribute lists (SLIQ; Mehta, Agrawal &
  * Rissanen, EDBT 1996): `fit` takes, per feature, the rows ordered by
  * `(value, row)` under `java.lang.Double.compare`, scans each node's lists
  * with prefix sums, and splits them stably into the children's lists, so no
  * node sorts. A stable filter of that global order is the order a per-node
  * stable sort of the node's ascending rows would give, so the prefix sums
  * add up in the same order and the splits are those of sorting per node.
  * Node sums (`mean`, the parent SSE) run in ascending row order.
  */
final class RegressionTree(
    maxDepth: Int,
    featureFraction: Double = 1.0,
    seed: Long,
) {
  import RegressionTree._

  private var rootOpt: Option[Node] = None
  private val rnd = new Random(seed)

  /** The fitted root, for tests that compare tree structure. */
  private[ml] def root: Node = rootOpt.getOrElse(throw new IllegalStateException("tree not fitted"))

  /** Fits on `x` with `order` = [[RegressionTree.presort]] of `x`. `order`
    * is not modified, so trees fit on one `x` can share one presort.
    */
  def fit(x: Array[Array[Double]], y: Array[Double], order: Array[Array[Int]]): this.type = { fitRouted(x, y, order); this }

  /** Fits as [[fit]] does and returns each training row's `predict(x(i))`:
    * the value of the leaf the builder routed row i to, by the same
    * `x(i)(f) <= threshold` tests that `predict` applies.
    */
  private[ml] def fitRouted(x: Array[Array[Double]], y: Array[Double], order: Array[Array[Int]]): Array[Double] = {
    RegressionTree.requireRectangular(x)
    require(x.length == y.length, "need aligned data")
    require(order.length == x(0).length && order.forall(_.length == x.length),
      "order must hold one row ordering per feature")
    val builder = new Builder(x, y, order)
    rootOpt = Some(builder.build(0, x.length, 0))
    builder.routed
  }

  def predict(row: Array[Double]): Double = {
    var node = root
    while (true) {
      node match {
        case Leaf(v)                  => return v
        case Split(f, t, left, right) => node = if (row(f) <= t) left else right
      }
    }
    0.0 // unreachable
  }

  /** One fit's working state. A node owns the segment `[lo, hi)` of `rows`
    * (its rows, ascending) and of every `lists(f)` (its rows by feature f).
    */
  private final class Builder(x: Array[Array[Double]], y: Array[Double], order: Array[Array[Int]]) {
    private val m = order.length
    private val nFeat = math.max(1, math.ceil(m * featureFraction).toInt)
    private val cols = Array.tabulate(m)(column(x, _))
    private val lists = order.map(_.clone())
    private val rows = Array.range(0, x.length)
    private val goesLeft = new Array[Int](x.length) // 1 if the row goes left at the node being split
    private val spill = new Array[Int](x.length)
    /** Each row's value at the leaf it reached. */
    val routed = new Array[Double](x.length)

    private def leaf(lo: Int, hi: Int): Leaf = {
      var s = 0.0; var p = lo
      while (p < hi) { s += y(rows(p)); p += 1 }
      val v = s / (hi - lo)
      p = lo
      while (p < hi) { routed(rows(p)) = v; p += 1 }
      Leaf(v)
    }

    def build(lo: Int, hi: Int, depth: Int): Node = {
      val size = hi - lo
      if (depth >= maxDepth || size < 2 * MinSamplesLeaf) return leaf(lo, hi)
      val feats = rnd.shuffle((0 until m).toList).take(nFeat)

      // Best split = max variance reduction, found with one sweep of each
      // feature's presorted list using prefix sums.
      var bestGain = 1e-12
      var bestFeat = -1
      var bestThr = 0.0
      var ts = 0.0; var ts2 = 0.0
      var p = lo
      while (p < hi) { val yi = y(rows(p)); ts += yi; ts2 += yi * yi; p += 1 }
      val n = size.toDouble
      val parentSse = ts2 - ts * ts / n

      for (f <- feats) {
        val sorted = lists(f)
        val col = cols(f)
        var ls = 0.0; var ls2 = 0.0
        var i = 0
        while (i < size - 1) {
          val yi = y(sorted(lo + i))
          ls += yi; ls2 += yi * yi
          val cur = col(sorted(lo + i))
          val nxt = col(sorted(lo + i + 1))
          if (cur != nxt && i + 1 >= MinSamplesLeaf && size - i - 1 >= MinSamplesLeaf) {
            val nl = (i + 1).toDouble
            val nr = n - nl
            val rs = ts - ls
            val rs2 = ts2 - ls2
            val sse = (ls2 - ls * ls / nl) + (rs2 - rs * rs / nr)
            val gain = parentSse - sse
            if (gain > bestGain) { bestGain = gain; bestFeat = f; bestThr = (cur + nxt) / 2.0 }
          }
          i += 1
        }
      }
      if (bestFeat < 0) return leaf(lo, hi)

      val col = cols(bestFeat)
      var nLeft = 0
      p = lo
      while (p < hi) {
        val r = rows(p)
        val g = if (col(r) <= bestThr) 1 else 0
        goesLeft(r) = g
        nLeft += g
        p += 1
      }
      if (nLeft == 0 || nLeft == size) return leaf(lo, hi)
      splitStable(rows, lo, hi)
      // Children at maxDepth are leaves: they only read `rows`.
      if (depth + 1 < maxDepth) lists.foreach(splitStable(_, lo, hi))
      val mid = lo + nLeft
      Split(bestFeat, bestThr, build(lo, mid, depth + 1), build(mid, hi, depth + 1))
    }

    /** Moves the left-going rows of `a(lo until hi)` before the others,
      * keeping the order within each side. Each row is written to both
      * sides and only its side's cursor advances, so no branch depends on
      * the data (a left cursor never passes the read position).
      */
    private def splitStable(a: Array[Int], lo: Int, hi: Int): Unit = {
      var l = lo; var s = 0; var p = lo
      while (p < hi) {
        val r = a(p)
        val g = goesLeft(r)
        a(l) = r; spill(s) = r
        l += g; s += 1 - g
        p += 1
      }
      System.arraycopy(spill, 0, a, l, s)
    }
  }

  /** Adds, per feature, the number of splits on it into `acc`: the
    * split-count "feature importance" used by the GBDT selector and ARDA.
    */
  def addImportance(acc: Array[Double]): Unit = {
    def walk(node: Node): Unit = node match {
      case Split(f, _, l, r) => acc(f) += 1.0; walk(l); walk(r)
      case _                 =>
    }
    rootOpt.foreach(walk)
  }
}

object RegressionTree {

  private[ml] val MinSamplesLeaf = 4 // the fewest rows a leaf holds, in every tree builder

  /** A fitted tree node: either a split or a leaf value. */
  sealed trait Node
  final case class Split(feature: Int, threshold: Double, left: Node, right: Node) extends Node
  final case class Leaf(value: Double) extends Node

  /** Per feature, the rows of `x` ordered by `(value, row)`, the order
    * [[RegressionTree.fit]] takes.
    */
  def presort(x: Array[Array[Double]]): Array[Array[Int]] = presort(ranks(x), Array.range(0, x.length))

  /** Per feature `f`, the positions `0 until sample.length` ordered by
    * `(ranks(f)(sample(p)), p)`: the presort of the matrix
    * `sample.map(x)` (a bootstrap sample, say) from the ranks of `x`.
    * A counting sort by rank that keeps positions ascending within a rank;
    * ranks are dense, so they lie below the row count of `x`.
    */
  def presort(ranks: Array[Array[Int]], sample: Array[Int]): Array[Array[Int]] =
    ranks.map(sortByRank(_, sample))

  /** The positions `0 until sample.length` ordered by
    * `(rank(sample(p)), p)`, for dense ranks below `rank.length`.
    */
  private[ml] def sortByRank(rank: Array[Int], sample: Array[Int]): Array[Int] = {
    val next = new Array[Int](rank.length + 1) // rank r's first slot, then its next
    var p = 0
    while (p < sample.length) { next(rank(sample(p)) + 1) += 1; p += 1 }
    var r = 0
    while (r < rank.length) { next(r + 1) += next(r); r += 1 }
    val order = new Array[Int](sample.length)
    p = 0
    while (p < sample.length) {
      val r = rank(sample(p))
      order(next(r)) = p
      next(r) += 1
      p += 1
    }
    order
  }

  /** Per feature `f`, [[denseRank]] of column `f`. */
  def ranks(x: Array[Array[Double]]): Array[Array[Int]] = {
    requireRectangular(x)
    Array.tabulate(x(0).length)(f => denseRank(column(x, f)))
  }

  /** The dense rank of each value among the distinct values of `col`,
    * ordered by `java.lang.Double.compare` (so -0.0 ranks below 0.0, as a
    * sort by value puts it, and every NaN ranks last, as one value).
    */
  private[ml] def denseRank(col: Array[Double]): Array[Int] = {
    val sorted = col.clone()
    java.util.Arrays.sort(sorted)
    var d = 0
    var i = 0
    while (i < sorted.length) {
      if (i == 0 || java.lang.Double.compare(sorted(i), sorted(d - 1)) != 0) { sorted(d) = sorted(i); d += 1 }
      i += 1
    }
    val rank = new Array[Int](col.length)
    i = 0
    while (i < col.length) { rank(i) = java.util.Arrays.binarySearch(sorted, 0, d, col(i)); i += 1 }
    rank
  }

  private def column(x: Array[Array[Double]], f: Int): Array[Double] = {
    val col = new Array[Double](x.length)
    var i = 0
    while (i < x.length) { col(i) = x(i)(f); i += 1 }
    col
  }

  private def requireRectangular(x: Array[Array[Double]]): Unit = {
    require(x.nonEmpty, "need non-empty data")
    val m = x(0).length
    require(m > 0, "x needs at least one column")
    val ragged = x.indexWhere(_.length != m)
    require(ragged < 0, s"x is ragged: row $ragged has ${x(ragged).length} columns, row 0 has $m")
  }
}
