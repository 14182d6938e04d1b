package repro.ml

import scala.util.Random

/** The sort-per-node CART kernel and the forest/booster loops over it, as
  * they were before [[RegressionTree]] moved to presorted attribute lists.
  * Tests check that the presorted kernel builds the same trees and scores.
  */
object ReferenceTrees {

  /** A tree in preorder: `(feature, threshold bits)` per split and
    * `(-1, value bits)` per leaf, so equal shapes mean bit-equal trees.
    */
  type Shape = List[(Int, Long)]

  private def bits(v: Double): Long = java.lang.Double.doubleToRawLongBits(v)

  def shape(t: RegressionTree): Shape = {
    def walk(node: RegressionTree.Node): Shape = node match {
      case RegressionTree.Split(f, thr, l, r) => (f, bits(thr)) :: walk(l) ::: walk(r)
      case RegressionTree.Leaf(v)             => List((-1, bits(v)))
    }
    walk(t.root)
  }

  /** CART that stably sorts each node's (ascending) rows by every scanned feature. */
  final class SortPerNodeTree(maxDepth: Int, featureFraction: Double, seed: Long) {
    import SortPerNodeTree._
    private val minSamplesLeaf = RegressionTree.MinSamplesLeaf
    private var root: Node = Leaf(0.0)
    private val rnd = new Random(seed)

    def fit(x: Array[Array[Double]], y: Array[Double]): this.type = {
      root = build(x, y, x.indices.toArray, 0)
      this
    }

    def predict(row: Array[Double]): Double = {
      var node = root
      while (true) {
        node match {
          case Leaf(v)                  => return v
          case Split(f, t, left, right) => node = if (row(f) <= t) left else right
        }
      }
      0.0
    }

    def shape: Shape = {
      def walk(node: Node): Shape = node match {
        case Split(f, thr, l, r) => (f, bits(thr)) :: walk(l) ::: walk(r)
        case Leaf(v)             => List((-1, bits(v)))
      }
      walk(root)
    }

    private def mean(y: Array[Double], idx: Array[Int]): Double = {
      var s = 0.0; var i = 0
      while (i < idx.length) { s += y(idx(i)); i += 1 }
      s / idx.length
    }

    private def build(x: Array[Array[Double]], y: Array[Double], idx: Array[Int], depth: Int): Node = {
      if (depth >= maxDepth || idx.length < 2 * minSamplesLeaf) return Leaf(mean(y, idx))
      val m = x(0).length
      val nFeat = math.max(1, math.ceil(m * featureFraction).toInt)
      val feats = rnd.shuffle((0 until m).toList).take(nFeat)

      var bestGain = 1e-12
      var bestFeat = -1
      var bestThr = 0.0
      val total = { var s = 0.0; var s2 = 0.0; idx.foreach { i => s += y(i); s2 += y(i) * y(i) }; (s, s2) }
      val n = idx.length.toDouble
      val parentSse = total._2 - total._1 * total._1 / n

      for (f <- feats) {
        val sorted = idx.sortBy(x(_)(f))
        var ls = 0.0; var ls2 = 0.0
        var i = 0
        while (i < sorted.length - 1) {
          val yi = y(sorted(i))
          ls += yi; ls2 += yi * yi
          val cur = x(sorted(i))(f)
          val nxt = x(sorted(i + 1))(f)
          if (cur != nxt && i + 1 >= minSamplesLeaf && sorted.length - i - 1 >= minSamplesLeaf) {
            val nl = (i + 1).toDouble
            val nr = n - nl
            val rs = total._1 - ls
            val rs2 = total._2 - ls2
            val sse = (ls2 - ls * ls / nl) + (rs2 - rs * rs / nr)
            val gain = parentSse - sse
            if (gain > bestGain) { bestGain = gain; bestFeat = f; bestThr = (cur + nxt) / 2.0 }
          }
          i += 1
        }
      }

      if (bestFeat < 0) Leaf(mean(y, idx))
      else {
        val (li, ri) = idx.partition(x(_)(bestFeat) <= bestThr)
        if (li.isEmpty || ri.isEmpty) Leaf(mean(y, idx))
        else Split(bestFeat, bestThr, build(x, y, li, depth + 1), build(x, y, ri, depth + 1))
      }
    }
  }

  object SortPerNodeTree {
    private sealed trait Node
    private final case class Split(feature: Int, threshold: Double, left: Node, right: Node) extends Node
    private final case class Leaf(value: Double) extends Node
  }

  /** [[RandomForestTrainer]] over [[SortPerNodeTree]]s. */
  final class RandomForest(task: Task, numTrees: Int, seed: Long) extends Trainer {
    override def fit(data: DenseData): Predictor = {
      val heads: Array[Array[Double] => Double] = task match {
        case MultiClassification(k) =>
          Array.tabulate(k)(c => fitForest(data.x, data.y.map(v => if (v.toInt == c) 1.0 else 0.0), seed + 1000L * c))
        case _ => Array(fitForest(data.x, data.y, seed))
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

    private def fitForest(x: Array[Array[Double]], y: Array[Double], s: Long): Array[Double] => Double = {
      val rnd = new Random(s)
      val n = x.length
      val trees = (0 until numTrees).map { t =>
        val idx = Array.fill(n)(rnd.nextInt(n))
        new SortPerNodeTree(RandomForestTrainer.MaxDepth, RandomForestTrainer.FeatureFraction, s + 31L * t).fit(idx.map(x), idx.map(y))
      }.toArray
      row => trees.iterator.map(_.predict(row)).sum / numTrees
    }
  }

  /** [[GradientBoostingTrainer]] over [[SortPerNodeTree]]s. */
  final class GradientBoosting(task: Task, numTrees: Int, seed: Long) extends Trainer {
    import GradientBoosting._

    override def fit(data: DenseData): Predictor = {
      val heads: Array[Head] = task match {
        case Regression           => Array(fitHead(data.x, data.y, logistic = false, seed))
        case BinaryClassification => Array(fitHead(data.x, data.y, logistic = true, seed))
        case MultiClassification(k) =>
          Array.tabulate(k) { c =>
            fitHead(data.x, data.y.map(v => if (v.toInt == c) 1.0 else 0.0), logistic = true, seed + 7919L * c)
          }
      }
      new Predictor {
        override def scores(row: Array[Double]): Array[Double] = task match {
          case Regression           => Array(heads(0).raw(row))
          case BinaryClassification => Array(sigmoid(heads(0).raw(row)))
          case MultiClassification(_) =>
            val p = heads.map(h => math.max(1e-9, sigmoid(h.raw(row))))
            val s = p.sum
            p.map(_ / s)
        }
      }
    }

    private def sigmoid(z: Double): Double = 1.0 / (1.0 + math.exp(-z))

    private def fitHead(x: Array[Array[Double]], y: Array[Double], logistic: Boolean, s: Long): Head = {
      val n = x.length
      val base =
        if (!logistic) y.sum / n
        else {
          val p = math.min(1 - 1e-6, math.max(1e-6, y.sum / n))
          math.log(p / (1 - p))
        }
      val f = Array.fill(n)(base)
      val trees = Array.tabulate(numTrees) { t =>
        val grad = Array.tabulate(n)(i => if (logistic) y(i) - sigmoid(f(i)) else y(i) - f(i))
        val tree = new SortPerNodeTree(GradientBoostingTrainer.MaxDepth, featureFraction = 1.0, seed = s + 101L * t).fit(x, grad)
        var i = 0
        while (i < n) { f(i) += learningRate * tree.predict(x(i)); i += 1 }
        tree
      }
      Head(base, trees)
    }
  }

  object GradientBoosting {
    private val learningRate = GradientBoostingTrainer.LearningRate
    private final case class Head(base: Double, trees: Array[SortPerNodeTree]) {
      def raw(row: Array[Double]): Double = base + trees.iterator.map(_.predict(row)).sum * learningRate
    }
  }
}
