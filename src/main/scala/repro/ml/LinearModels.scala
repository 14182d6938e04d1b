package repro.ml

import scala.util.Random

/** A trained model: maps a feature row to per-task scores (one per class
  * for [[MultiClassification]], else one).
  */
trait Predictor {
  def scores(x: Array[Double]): Array[Double]
  def scoresAll(x: Array[Array[Double]]): Array[Array[Double]] = x.map(scores)
}

/** A model family that can be fit on a dense dataset. */
trait Trainer {
  def fit(data: DenseData): Predictor
}

/** Logistic regression (binary sigmoid / multi-class softmax) trained with
  * full-batch gradient descent + momentum over standardized features.
  *
  * This is the paper's "LR" downstream model and the LR low-cost proxy.
  */
final class LogisticRegressionTrainer(task: Task, epochs: Int, seed: Long) extends Trainer {
  import LogisticRegressionTrainer._
  require(task != Regression, "use RidgeRegressionTrainer for regression")

  override def fit(data: DenseData): Predictor = {
    val std = Standardizer.fit(data.x)
    val xs = std.transform(data.x)
    val n = data.numRows
    val m = data.numCols
    val targets = Task.headTargets(task, data.y).toArray
    val k = targets.length
    val rnd = new Random(seed)
    val w = Array.fill(k, m)(rnd.nextGaussian() * 0.01)
    val b = new Array[Double](k)
    val vw = Array.fill(k, m)(0.0)
    val vb = new Array[Double](k)
    val mom = 0.9
    // P(y = 1) through a sigmoid for one head, else a softmax over the heads,
    // written into `out`. The softmax subtracts the largest score, in the order
    // of `java.lang.Double.compare`, and sums its terms left to right.
    def probsInto(x: Array[Double], out: Array[Double]): Unit = {
      var c = 0
      while (c < k) {
        var s = b(c); var j = 0
        while (j < m) { s += w(c)(j) * x(j); j += 1 }
        out(c) = s
        c += 1
      }
      if (k == 1) out(0) = Task.sigmoid(out(0))
      else {
        var mx = out(0)
        c = 1
        while (c < k) { if (java.lang.Double.compare(mx, out(c)) < 0) mx = out(c); c += 1 }
        var s = 0.0
        c = 0
        while (c < k) { out(c) = math.exp(out(c) - mx); s += out(c); c += 1 }
        c = 0
        while (c < k) { out(c) /= s; c += 1 }
      }
    }
    // One fit's buffers: this row's probabilities and the epoch's gradient.
    val p = new Array[Double](k)
    val gw = Array.fill(k, m)(0.0)
    val gb = new Array[Double](k)
    var epoch = 0
    while (epoch < epochs) {
      gw.foreach(java.util.Arrays.fill(_, 0.0))
      java.util.Arrays.fill(gb, 0.0)
      var i = 0
      while (i < n) {
        probsInto(xs(i), p)
        var c = 0
        while (c < k) {
          val err = p(c) - targets(c)(i)
          gb(c) += err
          var j = 0
          while (j < m) { gw(c)(j) += err * xs(i)(j); j += 1 }
          c += 1
        }
        i += 1
      }
      var c = 0
      while (c < k) {
        vb(c) = mom * vb(c) - LearningRate * gb(c) / n
        b(c) += vb(c)
        var j = 0
        while (j < m) {
          vw(c)(j) = mom * vw(c)(j) - LearningRate * (gw(c)(j) / n + L2 * w(c)(j))
          w(c)(j) += vw(c)(j)
          j += 1
        }
        c += 1
      }
      epoch += 1
    }
    new Predictor {
      override def scores(x: Array[Double]): Array[Double] = {
        val out = new Array[Double](k)
        probsInto(std.transformRow(x), out)
        out
      }
    }
  }
}

object LogisticRegressionTrainer {
  private val LearningRate = 0.5
  private val L2 = 1e-4
}

/** Ridge linear regression solved in closed form (normal equations with an
  * L2 diagonal), used as the regression "LR" downstream model, the LR proxy
  * for regression tasks, and the query-template predictor of QTI Opt. 2.
  */
final class RidgeRegressionTrainer(l2: Double = 1e-3) extends Trainer {

  override def fit(data: DenseData): Predictor = {
    val std = Standardizer.fit(data.x)
    val xs = std.transform(data.x)
    val n = data.numRows
    val m = data.numCols
    // Augment with an intercept column (not regularized).
    val d = m + 1
    val a = Array.fill(d, d)(0.0)
    val g = new Array[Double](d)
    var i = 0
    while (i < n) {
      val row = xs(i)
      var p = 0
      while (p < d) {
        val xp = if (p < m) row(p) else 1.0
        g(p) += xp * data.y(i)
        var q = p
        while (q < d) {
          val xq = if (q < m) row(q) else 1.0
          a(p)(q) += xp * xq
          q += 1
        }
        p += 1
      }
      i += 1
    }
    var p = 0
    while (p < d) {
      if (p < m) a(p)(p) += l2 * n
      var q = 0
      while (q < p) { a(p)(q) = a(q)(p); q += 1 }
      p += 1
    }
    val w = LinAlg.solve(a, g)
    new Predictor {
      override def scores(x: Array[Double]): Array[Double] = {
        val z = std.transformRow(x)
        var s = w(m); var j = 0
        while (j < m) { s += w(j) * z(j); j += 1 }
        Array(s)
      }
    }
  }
}

/** Small dense linear algebra helpers (Gaussian elimination with partial
  * pivoting) — matrices here are at most ~60x60.
  */
object LinAlg {
  /** Solve A w = g, destructively copying inputs. Singular pivots fall back
    * to a tiny ridge so the solver never throws on degenerate designs.
    */
  def solve(aIn: Array[Array[Double]], gIn: Array[Double]): Array[Double] = {
    val d = gIn.length
    val a = aIn.map(_.clone())
    val g = gIn.clone()
    var col = 0
    while (col < d) {
      var piv = col
      var r = col + 1
      while (r < d) { if (math.abs(a(r)(col)) > math.abs(a(piv)(col))) piv = r; r += 1 }
      if (piv != col) {
        val t = a(col); a(col) = a(piv); a(piv) = t
        val tg = g(col); g(col) = g(piv); g(piv) = tg
      }
      if (math.abs(a(col)(col)) < 1e-12) a(col)(col) += 1e-8
      r = col + 1
      while (r < d) {
        val f = a(r)(col) / a(col)(col)
        if (f != 0.0) {
          var c = col
          while (c < d) { a(r)(c) -= f * a(col)(c); c += 1 }
          g(r) -= f * g(col)
        }
        r += 1
      }
      col += 1
    }
    val w = new Array[Double](d)
    var r = d - 1
    while (r >= 0) {
      var s = g(r)
      var c = r + 1
      while (c < d) { s -= a(r)(c) * w(c); c += 1 }
      w(r) = s / a(r)(r)
      r -= 1
    }
    w
  }
}
