package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class TreeModelsSpec extends AnyFunSuite {

  private def fit(tree: RegressionTree, x: Array[Array[Double]], y: Array[Double]): RegressionTree =
    tree.fit(x, y, RegressionTree.presort(x))

  test("regression tree fits a step function exactly") {
    val x = Array.tabulate(100)(i => Array(i.toDouble))
    val y = x.map(r => if (r(0) < 50) 1.0 else 5.0)
    val tree = fit(new RegressionTree(maxDepth = 2, seed = 11L), x, y)
    assert(tree.predict(Array(10.0)) == 1.0)
    assert(tree.predict(Array(90.0)) == 5.0)
  }

  test("regression tree respects maxDepth = 0 (single leaf = mean)") {
    val x = Array(Array(0.0), Array(1.0))
    val y = Array(0.0, 10.0)
    val tree = fit(new RegressionTree(maxDepth = 0, seed = 11L), x, y)
    assert(tree.predict(Array(0.0)) == 5.0)
  }

  test("regression tree respects minSamplesLeaf") {
    val x = Array.tabulate(10)(i => Array(i.toDouble))
    val y = Array.tabulate(10)(i => if (i == 0) 100.0 else 0.0)
    // A leaf holds at least MinSamplesLeaf (4) rows, so the single outlier
    // at 0 is averaged with at least three zeros.
    val tree = fit(new RegressionTree(maxDepth = 5, seed = 11L), x, y)
    assert(tree.predict(Array(0.0)) <= 100.0 / RegressionTree.MinSamplesLeaf)
  }

  test("regression tree predict before fit throws") {
    intercept[IllegalStateException](new RegressionTree(maxDepth = 5, seed = 11L).predict(Array(1.0)))
  }

  test("regression tree importance counts splits on the used feature") {
    val x = Array.tabulate(100)(i => Array(i.toDouble, 0.0))
    val y = x.map(r => if (r(0) < 50) 0.0 else 1.0)
    val tree = fit(new RegressionTree(maxDepth = 3, seed = 11L), x, y)
    val imp = new Array[Double](2)
    tree.addImportance(imp)
    assert(imp(0) > 0 && imp(1) == 0.0)
  }

  test("regression tree rejects empty data") {
    intercept[IllegalArgumentException](fit(new RegressionTree(maxDepth = 5, seed = 11L), Array.empty, Array.empty))
  }

  test("regression tree rejects a ragged or column-less x with a clear message") {
    val x = Array(Array(1.0, 2.0), Array(3.0, 4.0), Array(5.0))
    val y = Array(0.0, 1.0, 2.0)
    val inPresort = intercept[IllegalArgumentException](RegressionTree.presort(x))
    assert(inPresort.getMessage.contains("row 2 has 1 columns"), inPresort.getMessage)
    val inFit = intercept[IllegalArgumentException](new RegressionTree(maxDepth = 5, seed = 11L).fit(x, y, RegressionTree.presort(x.take(2))))
    assert(inFit.getMessage.contains("row 2 has 1 columns"), inFit.getMessage)
    val empty = intercept[IllegalArgumentException](fit(new RegressionTree(maxDepth = 5, seed = 11L), Array(Array.empty[Double]), Array(0.0)))
    assert(empty.getMessage.contains("at least one column"), empty.getMessage)
  }

  test("random forest beats chance on a noisy threshold problem") {
    val rnd = new Random(1)
    val x = Array.fill(400)(Array(rnd.nextGaussian(), rnd.nextGaussian()))
    val y = x.map(r => if (r(0) > 0 ^ r(1) > 0) 1.0 else 0.0) // XOR: needs trees
    val pred = new RandomForestTrainer(BinaryClassification, numTrees = 20, seed = 13L).fit(DenseData(x, y))
    val auc = Metrics.auc(y, pred.scoresAll(x).map(_(0)))
    assert(auc > 0.9, s"AUC $auc")
  }

  test("random forest binary scores are within [0, 1]") {
    val rnd = new Random(2)
    val x = Array.fill(100)(Array(rnd.nextGaussian()))
    val y = x.map(r => if (r(0) > 0) 1.0 else 0.0)
    val pred = new RandomForestTrainer(BinaryClassification, numTrees = 5, seed = 13L).fit(DenseData(x, y))
    pred.scoresAll(x).foreach(s => assert(s(0) >= 0 && s(0) <= 1))
  }

  test("random forest multi-class probabilities sum to one") {
    val rnd = new Random(3)
    val x = Array.fill(120)(Array(rnd.nextGaussian() * 3))
    val y = x.map(r => math.max(0, math.min(2, math.floor(r(0) + 1.5))).toDouble)
    val pred = new RandomForestTrainer(MultiClassification(3), numTrees = 5, seed = 13L).fit(DenseData(x, y))
    val s = pred.scores(x(0))
    assert(s.length == 3 && math.abs(s.sum - 1.0) < 1e-9)
  }

  test("random forest regression approximates a smooth function") {
    val x = Array.tabulate(300)(i => Array(i / 300.0 * 6 - 3))
    val y = x.map(r => math.sin(r(0)))
    val pred = new RandomForestTrainer(Regression, numTrees = 20, seed = 13L).fit(DenseData(x, y))
    val rmse = Metrics.rmse(y, pred.scoresAll(x).map(_(0)))
    assert(rmse < 0.2, s"RMSE $rmse")
  }

  test("random forest is deterministic in seed") {
    val rnd = new Random(4)
    val x = Array.fill(80)(Array(rnd.nextGaussian()))
    val y = x.map(r => r(0) * 2)
    val a = new RandomForestTrainer(Regression, numTrees = 15, seed = 9).fit(DenseData(x, y)).scores(x(0))(0)
    val b = new RandomForestTrainer(Regression, numTrees = 15, seed = 9).fit(DenseData(x, y)).scores(x(0))(0)
    assert(a == b)
  }

  test("gradient boosting fits a nonlinear regression target") {
    val x = Array.tabulate(300)(i => Array(i / 300.0 * 6 - 3))
    val y = x.map(r => r(0) * r(0))
    val pred = new GradientBoostingTrainer(Regression, numTrees = 40, seed = 17L).fit(DenseData(x, y))
    val rmse = Metrics.rmse(y, pred.scoresAll(x).map(_(0)))
    assert(rmse < 0.5, s"RMSE $rmse")
  }

  test("gradient boosting separates XOR (binary)") {
    val rnd = new Random(5)
    val x = Array.fill(400)(Array(rnd.nextGaussian(), rnd.nextGaussian()))
    val y = x.map(r => if (r(0) > 0 ^ r(1) > 0) 1.0 else 0.0)
    val pred = new GradientBoostingTrainer(BinaryClassification, numTrees = 40, seed = 17L).fit(DenseData(x, y))
    val auc = Metrics.auc(y, pred.scoresAll(x).map(_(0)))
    assert(auc > 0.93, s"AUC $auc")
  }

  test("gradient boosting multi-class scores form a distribution") {
    val rnd = new Random(6)
    val x = Array.fill(150)(Array(rnd.nextGaussian() * 2))
    val y = x.map(r => math.max(0, math.min(3, math.floor(r(0) + 2))).toDouble)
    val pred = new GradientBoostingTrainer(MultiClassification(4), numTrees = 10, seed = 17L).fit(DenseData(x, y))
    val s = pred.scores(x(0))
    assert(s.length == 4 && math.abs(s.sum - 1.0) < 1e-9 && s.forall(_ >= 0))
  }

  test("gradient boosting binary probabilities are within [0, 1]") {
    val x = Array.tabulate(60)(i => Array(i.toDouble))
    val y = x.map(r => if (r(0) > 30) 1.0 else 0.0)
    val pred = new GradientBoostingTrainer(BinaryClassification, numTrees = 15, seed = 17L).fit(DenseData(x, y))
    pred.scoresAll(x).foreach(s => assert(s(0) >= 0 && s(0) <= 1))
  }

  test("gradient boosting is deterministic in seed") {
    val rnd = new Random(7)
    val x = Array.fill(80)(Array(rnd.nextGaussian()))
    val y = x.map(r => r(0))
    val a = new GradientBoostingTrainer(Regression, numTrees = 25, seed = 3).fit(DenseData(x, y)).scores(x(1))(0)
    val b = new GradientBoostingTrainer(Regression, numTrees = 25, seed = 3).fit(DenseData(x, y)).scores(x(1))(0)
    assert(a == b)
  }
}
