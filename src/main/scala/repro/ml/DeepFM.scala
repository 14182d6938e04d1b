package repro.ml

import scala.util.Random

/** A compact DeepFM (Guo et al., IJCAI'17) for dense tabular features.
  *
  * Each feature i is treated as a field with embedding v_i in R^k scaled by
  * its (standardized) value x_i. The prediction combines:
  *
  *  - first-order term:   b + sum_i w_i x_i
  *  - FM second order:    0.5 * sum_f [ (sum_i v_if x_i)^2 - sum_i v_if^2 x_i^2 ]
  *  - deep component:     one ReLU hidden layer over the concatenated
  *                        embeddings e_i = v_i * x_i
  *
  * with a sigmoid head + log loss for binary classification and an identity
  * head + squared loss for regression (the paper uses DeepFM on both its
  * binary AUC datasets and the Merchant regression dataset). Trained with
  * per-sample SGD + momentum; deterministic in `seed`.
  */
final class DeepFMTrainer(task: Task, epochs: Int, seed: Long) extends Trainer {
  import DeepFMTrainer._
  require(task == BinaryClassification || task == Regression,
    "DeepFM supports binary classification and regression only")

  override def fit(data: DenseData): Predictor = {
    // Wide inputs need a smaller step; if training still diverges (any
    // non-finite prediction), retry with a 5x smaller rate.
    val width = math.max(1, data.numCols)
    var rate = LearningRate / math.sqrt(math.max(1.0, width / 8.0))
    var attempt = fitOnce(data, rate)
    var tries = 0
    while (tries < 3 && !finitePredictions(attempt, data)) {
      rate /= 5
      attempt = fitOnce(data, rate)
      tries += 1
    }
    attempt
  }

  private def finitePredictions(p: Predictor, data: DenseData): Boolean =
    data.x.forall(r => p.scores(r).forall(v => !v.isNaN && !v.isInfinity))

  private def fitOnce(data: DenseData, lr: Double): Predictor = {
    val std = Standardizer.fit(data.x)
    val xs = std.transform(data.x)
    val n = data.numRows
    val m = data.numCols
    val k = EmbedDim
    val rnd = new Random(seed)
    def init(scale: Double) = rnd.nextGaussian() * scale

    val w0 = Array.fill(m)(init(0.01))       // first-order weights
    var b0 = 0.0
    val v = Array.fill(m, k)(init(0.05))     // embeddings
    val w1 = Array.fill(Hidden, m * k)(init(math.sqrt(2.0 / (m * k)))) // deep layer 1
    val b1 = Array.fill(Hidden)(0.0)
    val w2 = Array.fill(Hidden)(init(0.05))  // deep output
    var b2 = 0.0

    // Momentum buffers.
    val mw0 = Array.fill(m)(0.0); var mb0 = 0.0
    val mv = Array.fill(m, k)(0.0)
    val mw1 = Array.fill(Hidden, m * k)(0.0); val mb1 = Array.fill(Hidden)(0.0)
    val mw2 = Array.fill(Hidden)(0.0); var mb2 = 0.0
    val mom = 0.9
    // Regression targets can be large; scale lr by target variance guard.
    val yScale = task match {
      case Regression =>
        val mu = data.y.sum / n
        val sd = math.sqrt(data.y.map(y => (y - mu) * (y - mu)).sum / n)
        (mu, if (sd < 1e-9) 1.0 else sd)
      case _ => (0.0, 1.0)
    }
    def normY(y: Double) = (y - yScale._1) / yScale._2

    def forward(x: Array[Double]): (Double, Array[Double], Array[Double], Array[Double]) = {
      // returns (raw output, sumPerFactor S_f, embeddings u, hidden activations h)
      val sf = new Array[Double](k)
      var fm = 0.0
      val u = new Array[Double](m * k)
      var i = 0
      while (i < m) {
        var f = 0
        while (f < k) {
          val e = v(i)(f) * x(i)
          u(i * k + f) = e
          sf(f) += e
          fm -= e * e
          f += 1
        }
        i += 1
      }
      var f = 0
      while (f < k) { fm += sf(f) * sf(f); f += 1 }
      fm *= 0.5
      var first = b0
      i = 0
      while (i < m) { first += w0(i) * x(i); i += 1 }
      val h = new Array[Double](Hidden)
      var j = 0
      while (j < Hidden) {
        var s = b1(j)
        var p = 0
        while (p < m * k) { s += w1(j)(p) * u(p); p += 1 }
        h(j) = if (s > 0) s else 0.0
        j += 1
      }
      var deep = b2
      j = 0
      while (j < Hidden) { deep += w2(j) * h(j); j += 1 }
      (first + fm + deep, sf, u, h)
    }

    val order = (0 until n).toArray
    var epoch = 0
    while (epoch < epochs) {
      // deterministic shuffle per epoch
      Splits.shuffle(order, new Random(seed + epoch))
      var oi = 0
      while (oi < n) {
        val i = order(oi)
        val x = xs(i)
        val (raw, sf, u, h) = forward(x)
        val delta0 = task match {
          case BinaryClassification => Task.sigmoid(raw) - data.y(i)
          case _                    => raw - normY(data.y(i))
        }
        // Clip the residual so one bad sample cannot blow up the momentum.
        val delta = math.max(-4.0, math.min(4.0, delta0))
        // deep output layer
        mb2 = mom * mb2 - lr * delta; b2 += mb2
        val dh = new Array[Double](Hidden)
        var j = 0
        while (j < Hidden) {
          mw2(j) = mom * mw2(j) - lr * delta * h(j)
          dh(j) = if (h(j) > 0) delta * w2(j) else 0.0
          w2(j) += mw2(j)
          j += 1
        }
        // gradient wrt embeddings u from the deep layer
        val du = new Array[Double](m * k)
        j = 0
        while (j < Hidden) {
          if (dh(j) != 0.0) {
            var p = 0
            while (p < m * k) {
              du(p) += dh(j) * w1(j)(p)
              mw1(j)(p) = mom * mw1(j)(p) - lr * dh(j) * u(p)
              w1(j)(p) += mw1(j)(p)
              p += 1
            }
          }
          mb1(j) = mom * mb1(j) - lr * dh(j)
          b1(j) += mb1(j)
          j += 1
        }
        // first-order + FM + embedding gradients
        mb0 = mom * mb0 - lr * delta; b0 += mb0
        var ii = 0
        while (ii < m) {
          mw0(ii) = mom * mw0(ii) - lr * delta * x(ii)
          w0(ii) += mw0(ii)
          var f = 0
          while (f < k) {
            val gFm = delta * x(ii) * (sf(f) - v(ii)(f) * x(ii))
            val gDeep = du(ii * k + f) * x(ii)
            mv(ii)(f) = mom * mv(ii)(f) - lr * (gFm + gDeep)
            v(ii)(f) += mv(ii)(f)
            f += 1
          }
          ii += 1
        }
        oi += 1
      }
      epoch += 1
    }

    new Predictor {
      override def scores(x: Array[Double]): Array[Double] = {
        val z = std.transform(Array(x))(0)
        val (raw, _, _, _) = forward(z)
        task match {
          case BinaryClassification => Array(Task.sigmoid(raw))
          case _                    => Array(raw * yScale._2 + yScale._1)
        }
      }
    }
  }
}

object DeepFMTrainer {
  private val EmbedDim = 4 // k, every field's embedding size
  private val Hidden = 16  // units of the deep component's ReLU layer
  private val LearningRate = 0.02
}
