package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class LinearModelsSpec extends AnyFunSuite {

  private def linearlySeparable(n: Int, seed: Long): DenseData = {
    val rnd = new Random(seed)
    val x = Array.fill(n)(Array(rnd.nextGaussian(), rnd.nextGaussian()))
    val y = x.map(r => if (r(0) + 2 * r(1) > 0) 1.0 else 0.0)
    DenseData(x, y)
  }

  test("logistic regression separates linearly separable data") {
    val data = linearlySeparable(300, 1)
    val pred = new LogisticRegressionTrainer(BinaryClassification, epochs = 150, seed = 7L).fit(data)
    val auc = Metrics.auc(data.y, pred.scoresAll(data.x).map(_(0)))
    assert(auc > 0.98, s"AUC $auc")
  }

  test("logistic regression emits probabilities in [0, 1]") {
    val data = linearlySeparable(100, 2)
    val pred = new LogisticRegressionTrainer(BinaryClassification, epochs = 150, seed = 7L).fit(data)
    pred.scoresAll(data.x).foreach(s => assert(s(0) >= 0 && s(0) <= 1))
  }

  test("logistic regression is deterministic in seed") {
    val data = linearlySeparable(100, 3)
    val a = new LogisticRegressionTrainer(BinaryClassification, epochs = 150, seed = 5).fit(data).scores(data.x(0))(0)
    val b = new LogisticRegressionTrainer(BinaryClassification, epochs = 150, seed = 5).fit(data).scores(data.x(0))(0)
    assert(a == b)
  }

  test("softmax regression classifies three well-separated clusters") {
    val rnd = new Random(4)
    val x = Array.tabulate(300) { i =>
      val c = i % 3
      Array(c * 4.0 + rnd.nextGaussian() * 0.3, -c * 4.0 + rnd.nextGaussian() * 0.3)
    }
    val y = Array.tabulate(300)(i => (i % 3).toDouble)
    val pred = new LogisticRegressionTrainer(MultiClassification(3), epochs = 150, seed = 7L).fit(DenseData(x, y))
    val f1 = Metrics.taskMetric(MultiClassification(3), y, pred.scoresAll(x))
    assert(f1 > 0.95, s"F1 $f1")
  }

  test("softmax probabilities sum to one") {
    val data = linearlySeparable(60, 5)
    val pred = new LogisticRegressionTrainer(MultiClassification(3), epochs = 150, seed = 7L).fit(
      DenseData(data.x, data.y.map(v => v * 2))) // classes 0 and 2
    val s = pred.scores(data.x(0))
    assert(math.abs(s.sum - 1.0) < 1e-9)
    assert(s.length == 3)
  }

  test("logistic trainer rejects regression tasks") {
    intercept[IllegalArgumentException](new LogisticRegressionTrainer(Regression, epochs = 150, seed = 7L))
  }

  test("ridge regression recovers a linear function") {
    val rnd = new Random(6)
    val x = Array.fill(200)(Array(rnd.nextGaussian(), rnd.nextGaussian()))
    val y = x.map(r => 3 * r(0) - 2 * r(1) + 0.5)
    val pred = new RidgeRegressionTrainer(l2 = 1e-9).fit(DenseData(x, y))
    val rmse = Metrics.rmse(y, pred.scoresAll(x).map(_(0)))
    assert(rmse < 0.01, s"RMSE $rmse")
  }

  test("ridge regression tolerates constant (zero-variance) columns") {
    val x = Array.tabulate(50)(i => Array(i.toDouble, 1.0))
    val y = x.map(r => 2 * r(0))
    val pred = new RidgeRegressionTrainer().fit(DenseData(x, y))
    assert(math.abs(pred.scores(Array(10.0, 1.0))(0) - 20.0) < 0.5)
  }

  test("ridge regression fits the intercept") {
    val x = Array.tabulate(50)(i => Array(i.toDouble / 10))
    val y = x.map(_ => 7.0)
    val pred = new RidgeRegressionTrainer().fit(DenseData(x, y))
    assert(math.abs(pred.scores(Array(0.3))(0) - 7.0) < 1e-6)
  }

  test("LinAlg.solve solves a known 2x2 system") {
    val w = LinAlg.solve(Array(Array(2.0, 1.0), Array(1.0, 3.0)), Array(5.0, 10.0))
    assert(math.abs(w(0) - 1.0) < 1e-9 && math.abs(w(1) - 3.0) < 1e-9)
  }

  test("LinAlg.solve handles pivoting (zero on the diagonal)") {
    val w = LinAlg.solve(Array(Array(0.0, 1.0), Array(1.0, 0.0)), Array(2.0, 3.0))
    assert(math.abs(w(0) - 3.0) < 1e-9 && math.abs(w(1) - 2.0) < 1e-9)
  }

  test("LinAlg.solve does not mutate its inputs") {
    val a = Array(Array(2.0, 0.0), Array(0.0, 2.0))
    val g = Array(2.0, 4.0)
    LinAlg.solve(a, g)
    assert(a(0)(0) == 2.0 && g(1) == 4.0)
  }

  test("LinAlg.solve survives a singular matrix via tiny ridge fallback") {
    val w = LinAlg.solve(Array(Array(1.0, 1.0), Array(1.0, 1.0)), Array(2.0, 2.0))
    assert(w.forall(v => v.isFinite))
  }

  test("Standardizer maps train columns to mean 0 / unit variance") {
    val x = Array(Array(1.0, 10.0), Array(3.0, 30.0), Array(5.0, 50.0))
    val z = Standardizer.fit(x).transform(x)
    (0 to 1).foreach { j =>
      val col = z.map(_(j))
      assert(math.abs(col.sum) < 1e-9)
      assert(math.abs(col.map(v => v * v).sum / col.length - 1.0) < 1e-9)
    }
  }

  test("Standardizer maps constant columns to zero") {
    val x = Array(Array(4.0), Array(4.0))
    assert(Standardizer.fit(x).transform(x).forall(_(0) == 0.0))
  }

  test("DenseData validates row alignment and selects rows") {
    intercept[IllegalArgumentException](DenseData(Array(Array(1.0)), Array(1.0, 2.0)))
    val d = DenseData(Array(Array(1.0), Array(2.0), Array(3.0)), Array(10.0, 20.0, 30.0))
    val s = d.select(Array(2, 0))
    assert(s.x(0)(0) == 3.0 && s.y(1) == 10.0)
  }
}
