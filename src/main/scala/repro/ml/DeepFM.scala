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
    val std = Standardizer.fit(data.x)
    val xs = std.transform(data.x)
    var attempt = fitOnce(data, std, xs, rate)
    var tries = 0
    while (tries < 3 && !attempt._2) {
      rate /= 5
      attempt = fitOnce(data, std, xs, rate)
      tries += 1
    }
    attempt._1
  }

  /** One SGD fit at rate `lr` on `xs` = `std.transform(data.x)`, and whether
    * it scores every training row finite.
    */
  private def fitOnce(data: DenseData, std: Standardizer, xs: Array[Array[Double]],
                      lr: Double): (Predictor, Boolean) = {
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

    /** The raw output for `x`; fills `sf` with the per-factor sums S_f, `u`
      * with the embeddings and `h` with the hidden activations.
      */
    def forward(x: Array[Double], sf: Array[Double], u: Array[Double], h: Array[Double]): Double = {
      java.util.Arrays.fill(sf, 0.0)
      var fm = 0.0
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
      // Eight units at a time, so each pass over `u` feeds eight sums; each
      // sum still adds its terms in order p = 0, 1, ...
      var j = 0
      while (j < Hidden) {
        val r0 = w1(j); val r1 = w1(j + 1); val r2 = w1(j + 2); val r3 = w1(j + 3)
        val r4 = w1(j + 4); val r5 = w1(j + 5); val r6 = w1(j + 6); val r7 = w1(j + 7)
        var s0 = b1(j); var s1 = b1(j + 1); var s2 = b1(j + 2); var s3 = b1(j + 3)
        var s4 = b1(j + 4); var s5 = b1(j + 5); var s6 = b1(j + 6); var s7 = b1(j + 7)
        var p = 0
        while (p < m * k) {
          val e = u(p)
          s0 += r0(p) * e; s1 += r1(p) * e; s2 += r2(p) * e; s3 += r3(p) * e
          s4 += r4(p) * e; s5 += r5(p) * e; s6 += r6(p) * e; s7 += r7(p) * e
          p += 1
        }
        h(j) = relu(s0); h(j + 1) = relu(s1); h(j + 2) = relu(s2); h(j + 3) = relu(s3)
        h(j + 4) = relu(s4); h(j + 5) = relu(s5); h(j + 6) = relu(s6); h(j + 7) = relu(s7)
        j += 8
      }
      var deep = b2
      j = 0
      while (j < Hidden) { deep += w2(j) * h(j); j += 1 }
      first + fm + deep
    }

    // The pass ends after the update of the first sample whose output is
    // NaN. That update makes `b2` NaN (the residual clip passes NaN
    // through), so every later output, and every score of the fit, is NaN
    // whatever the remaining samples do: the rest of the pass is dead work.
    // An infinite output is clipped like any other and does not end it.
    var diverged = false
    // Per-sample buffers, reused by every sample of the attempt.
    val sf = new Array[Double](k)
    val u, du = new Array[Double](m * k)
    val h, dh = new Array[Double](Hidden)
    val order = (0 until n).toArray
    var epoch = 0
    while (epoch < epochs && !diverged) {
      // deterministic shuffle per epoch
      Splits.shuffle(order, new Random(seed + epoch))
      var oi = 0
      while (oi < n && !diverged) {
        val i = order(oi)
        val x = xs(i)
        val raw = forward(x, sf, u, h)
        val delta0 = task match {
          case BinaryClassification => Task.sigmoid(raw) - data.y(i)
          case _                    => raw - normY(data.y(i))
        }
        // Clip the residual so one bad sample cannot blow up the momentum.
        val delta = math.max(-4.0, math.min(4.0, delta0))
        // Products evaluate left to right, so `lr * delta * h(j)` is
        // `(lr * delta) * h(j)`: hoisting each left factor keeps the bits.
        val lrDelta = lr * delta
        // deep output layer
        mb2 = mom * mb2 - lrDelta; b2 += mb2
        var j = 0
        while (j < Hidden) {
          mw2(j) = mom * mw2(j) - lrDelta * h(j)
          dh(j) = if (h(j) > 0) delta * w2(j) else 0.0
          w2(j) += mw2(j)
          j += 1
        }
        // gradient wrt embeddings u from the deep layer
        java.util.Arrays.fill(du, 0.0)
        j = 0
        while (j < Hidden) {
          val g = dh(j)
          if (g != 0.0) {
            val wj = w1(j); val mj = mw1(j); val lrG = lr * g
            var p = 0
            while (p < m * k) {
              du(p) += g * wj(p)
              mj(p) = mom * mj(p) - lrG * u(p)
              wj(p) += mj(p)
              p += 1
            }
          }
          mb1(j) = mom * mb1(j) - lr * g
          b1(j) += mb1(j)
          j += 1
        }
        // first-order + FM + embedding gradients
        mb0 = mom * mb0 - lrDelta; b0 += mb0
        var ii = 0
        while (ii < m) {
          val xi = x(ii); val vi = v(ii); val mvi = mv(ii); val deltaX = delta * xi
          mw0(ii) = mom * mw0(ii) - lrDelta * xi
          w0(ii) += mw0(ii)
          var f = 0
          while (f < k) {
            val gFm = deltaX * (sf(f) - vi(f) * xi)
            val gDeep = du(ii * k + f) * xi
            mvi(f) = mom * mvi(f) - lr * (gFm + gDeep)
            vi(f) += mvi(f)
            f += 1
          }
          ii += 1
        }
        diverged = raw.isNaN
        oi += 1
      }
      epoch += 1
    }

    def score(raw: Double): Double = task match {
      case BinaryClassification => Task.sigmoid(raw)
      case _                    => raw * yScale._2 + yScale._1
    }
    // The predictor scores `std.transformRow(x)`, which for a training row
    // is its row of `xs`, bit for bit: check those rows with this fit's buffers.
    val finite = xs.forall { z => val s = score(forward(z, sf, u, h)); !s.isNaN && !s.isInfinity }
    val predictor = new Predictor {
      override def scores(x: Array[Double]): Array[Double] =
        Array(score(forward(std.transformRow(x), new Array[Double](k), new Array[Double](m * k), new Array[Double](Hidden))))
    }
    (predictor, finite)
  }
}

object DeepFMTrainer {
  private val EmbedDim = 4 // k, every field's embedding size
  private val Hidden = 16  // units of the deep component's ReLU layer; `forward` takes them eight at a time
  private val LearningRate = 0.02

  private def relu(s: Double): Double = if (s > 0) s else 0.0
}
