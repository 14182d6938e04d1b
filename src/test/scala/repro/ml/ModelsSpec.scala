package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class ModelsSpec extends AnyFunSuite {

  private val kinds = Vector(LRModel, XGBModel, RFModel, DeepFMModel)

  private def binaryData(n: Int): DenseData = {
    val rnd = new Random(1)
    val x = Array.fill(n)(Array(rnd.nextGaussian(), rnd.nextGaussian()))
    DenseData(x, x.map(r => if (r(0) > 0) 1.0 else 0.0))
  }

  test("factory builds every model kind for binary tasks") {
    kinds.foreach { mk =>
      val t = Models.trainer(mk, BinaryClassification, seed = 7L, fast = false)
      assert(t != null, mk.name)
    }
  }

  test("factory uses ridge regression for LR on regression tasks") {
    assert(Models.trainer(LRModel, Regression, seed = 7L, fast = false).isInstanceOf[RidgeRegressionTrainer])
  }

  test("splitLoss + splitMetric are consistent (loss = 1 - metric for AUC)") {
    val d = binaryData(200)
    val tr = Array.range(0, 120); val ev = Array.range(120, 200)
    val loss = Models.splitLoss(LRModel, BinaryClassification, d, tr, ev, seed = 7L, fast = false)
    val metric = Models.splitMetric(LRModel, BinaryClassification, d, tr, ev, seed = 7L, fast = false)
    assert(math.abs(loss - (1 - metric)) < 1e-12)
  }

  test("splitLoss is 1 - macro F1 for multi-class and the eval RMSE for regression") {
    val d = binaryData(200)
    val tr = Array.range(0, 120); val ev = Array.range(120, 200)
    val multi = DenseData(d.x, d.x.map(r => (if (r(0) > 0) 1.0 else 0.0) + (if (r(1) > 0) 2.0 else 0.0)))
    val f1 = Models.splitMetric(XGBModel, MultiClassification(4), multi, tr, ev, seed = 7L, fast = false)
    assert(Models.splitLoss(XGBModel, MultiClassification(4), multi, tr, ev, seed = 7L, fast = false) == 1 - f1)
    // Regression: the loss is the RMSE of the fitted model's eval predictions.
    val reg = DenseData(d.x, d.x.map(r => 3 * r(0) - r(1)))
    val fitted = Models.trainer(LRModel, Regression, seed = 7L, fast = false).fit(reg.select(tr))
    val rmse = Metrics.rmse(reg.select(ev).y, fitted.scoresAll(reg.select(ev).x).map(_(0)))
    assert(Models.splitMetric(LRModel, Regression, reg, tr, ev, seed = 7L, fast = false) == rmse)
    assert(Models.splitLoss(LRModel, Regression, reg, tr, ev, seed = 7L, fast = false) == rmse)
  }

  test("splitLoss is low on separable data for every model kind") {
    val d = binaryData(300)
    val tr = Array.range(0, 180); val ev = Array.range(180, 300)
    kinds.foreach { mk =>
      val loss = Models.splitLoss(mk, BinaryClassification, d, tr, ev, seed = 7L, fast = false)
      assert(loss < 0.2, s"${mk.name} loss $loss")
    }
  }

  test("fast mode still trains a usable model") {
    val d = binaryData(200)
    val tr = Array.range(0, 120); val ev = Array.range(120, 200)
    val loss = Models.splitLoss(XGBModel, BinaryClassification, d, tr, ev, seed = 7L, fast = true)
    assert(loss < 0.3)
  }

  test("three-way split has 0.6/0.2/0.2 sizes and partitions all rows") {
    val s = Splits.threeWay(100, seed = 42L)
    assert(s.train.length == 60 && s.valid.length == 20 && s.test.length == 20)
    assert((s.train ++ s.valid ++ s.test).sorted.sameElements(Array.range(0, 100)))
  }

  test("three-way split is deterministic in seed and shuffled") {
    val a = Splits.threeWay(50, seed = 1)
    val b = Splits.threeWay(50, seed = 1)
    val c = Splits.threeWay(50, seed = 2)
    assert(a.train.sameElements(b.train))
    assert(!a.train.sameElements(c.train))
    assert(!a.train.sameElements(Array.range(0, 30))) // actually shuffled
  }

  test("three-way splits are pairwise disjoint") {
    val s = Splits.threeWay(83, seed = 3)
    assert(s.train.intersect(s.valid).isEmpty)
    assert(s.train.intersect(s.test).isEmpty)
    assert(s.valid.intersect(s.test).isEmpty)
  }
}
