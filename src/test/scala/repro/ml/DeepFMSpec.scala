package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class DeepFMSpec extends AnyFunSuite {

  test("DeepFM learns a linearly separable binary problem") {
    val rnd = new Random(1)
    val x = Array.fill(400)(Array(rnd.nextGaussian(), rnd.nextGaussian()))
    val y = x.map(r => if (r(0) - r(1) > 0) 1.0 else 0.0)
    val pred = new DeepFMTrainer(BinaryClassification, epochs = 20).fit(DenseData(x, y))
    val auc = Metrics.auc(y, pred.scoresAll(x).map(_(0)))
    assert(auc > 0.95, s"AUC $auc")
  }

  test("DeepFM captures a multiplicative feature interaction (FM term)") {
    val rnd = new Random(2)
    val x = Array.fill(500)(Array(rnd.nextGaussian(), rnd.nextGaussian()))
    val y = x.map(r => if (r(0) * r(1) > 0) 1.0 else 0.0) // pure interaction
    val pred = new DeepFMTrainer(BinaryClassification, epochs = 40).fit(DenseData(x, y))
    val auc = Metrics.auc(y, pred.scoresAll(x).map(_(0)))
    assert(auc > 0.85, s"AUC $auc (a linear model would be ~0.5)")
  }

  test("DeepFM regression recovers a noisy linear target") {
    val rnd = new Random(3)
    val x = Array.fill(400)(Array(rnd.nextGaussian(), rnd.nextGaussian()))
    val y = x.map(r => 2 * r(0) - r(1) + rnd.nextGaussian() * 0.1)
    val pred = new DeepFMTrainer(Regression, epochs = 30).fit(DenseData(x, y))
    val rmse = Metrics.rmse(y, pred.scoresAll(x).map(_(0)))
    assert(rmse < 0.8, s"RMSE $rmse (target sd ~2.2)")
  }

  test("DeepFM binary outputs are probabilities") {
    val rnd = new Random(4)
    val x = Array.fill(100)(Array(rnd.nextGaussian()))
    val y = x.map(r => if (r(0) > 0) 1.0 else 0.0)
    val pred = new DeepFMTrainer(BinaryClassification, epochs = 5).fit(DenseData(x, y))
    pred.scoresAll(x).foreach(s => assert(s(0) >= 0 && s(0) <= 1))
  }

  test("DeepFM is deterministic in seed") {
    val rnd = new Random(5)
    val x = Array.fill(80)(Array(rnd.nextGaussian(), rnd.nextGaussian()))
    val y = x.map(r => if (r(0) > 0) 1.0 else 0.0)
    val a = new DeepFMTrainer(BinaryClassification, epochs = 5, seed = 2).fit(DenseData(x, y)).scores(x(0))(0)
    val b = new DeepFMTrainer(BinaryClassification, epochs = 5, seed = 2).fit(DenseData(x, y)).scores(x(0))(0)
    assert(a == b)
  }

  test("DeepFM stays finite and learns on a wide matrix (45 features)") {
    // Regression guard for the bench-scale failure: many noise columns +
    // one signal column must not diverge the per-sample SGD.
    val rnd = new Random(6)
    val n = 1200
    val x = Array.fill(n) {
      val row = Array.fill(45)(rnd.nextGaussian())
      row
    }
    val y = x.map(r => if (r(7) > 0) 1.0 else 0.0)
    x.foreach(r => r(7) = r(7) * 2 + rnd.nextGaussian() * 0.2)
    val pred = new DeepFMTrainer(BinaryClassification, epochs = 15).fit(DenseData(x, y))
    val scores = pred.scoresAll(x).map(_(0))
    assert(scores.forall(s => !s.isNaN && !s.isInfinity))
    val auc = Metrics.auc(y, scores)
    assert(auc > 0.85, s"AUC $auc")
  }

  test("DeepFM regression stays finite on a wide matrix with a large-scale target") {
    val rnd = new Random(7)
    val n = 1200
    val x = Array.fill(n)(Array.fill(45)(rnd.nextGaussian()))
    val y = x.map(r => 2.5 * r(3) + rnd.nextGaussian() * 3.2) // Merchant-like target
    val pred = new DeepFMTrainer(Regression, epochs = 15).fit(DenseData(x, y))
    val out = pred.scoresAll(x).map(_(0))
    assert(out.forall(v => !v.isNaN && !v.isInfinity))
    val rmse = Metrics.rmse(y, out)
    assert(rmse < 4.2, s"RMSE $rmse (target sd ~4)")
  }

  test("DeepFM rejects multi-class tasks") {
    intercept[IllegalArgumentException](new DeepFMTrainer(MultiClassification(3)))
  }
}
