package repro.ml

import org.scalatest.funsuite.AnyFunSuite

class MetricsSpec extends AnyFunSuite {

  test("AUC is 1.0 for a perfect ranking") {
    assert(Metrics.auc(Array(0, 0, 1, 1), Array(0.1, 0.2, 0.8, 0.9)) == 1.0)
  }

  test("AUC is 0.0 for a perfectly inverted ranking") {
    assert(Metrics.auc(Array(0, 0, 1, 1), Array(0.9, 0.8, 0.2, 0.1)) == 0.0)
  }

  test("AUC is 0.5 for constant scores (all tied)") {
    assert(Metrics.auc(Array(0, 1, 0, 1), Array(0.5, 0.5, 0.5, 0.5)) == 0.5)
  }

  test("AUC is 0.5 when one class is absent") {
    assert(Metrics.auc(Array(1.0, 1.0), Array(0.3, 0.7)) == 0.5)
    assert(Metrics.auc(Array(0.0, 0.0), Array(0.3, 0.7)) == 0.5)
  }

  test("AUC handles partial ties via average ranks") {
    // pos scores {0.5, 0.9}, neg {0.1, 0.5}: pairs (0.5>0.1)=1, (0.5=0.5)=.5,
    // (0.9>0.1)=1, (0.9>0.5)=1 => 3.5/4
    assert(math.abs(Metrics.auc(Array(0, 1, 0, 1), Array(0.1, 0.5, 0.5, 0.9)) - 0.875) < 1e-12)
  }

  test("AUC rejects mismatched lengths") {
    intercept[IllegalArgumentException](Metrics.auc(Array(1.0), Array(0.5, 0.5)))
  }

  test("macro F1 is 1.0 for perfect predictions") {
    assert(Metrics.macroF1(Array(0, 1, 2, 0), Array(0, 1, 2, 0), 3) == 1.0)
  }

  test("macro F1 is 0.0 when every prediction is wrong") {
    assert(Metrics.macroF1(Array(0, 1), Array(1, 0), 2) == 0.0)
  }

  test("macro F1 averages per-class F1") {
    // class 0: tp=1 fp=1 fn=0 -> p=.5 r=1 f1=2/3; class 1: tp=1 fp=0 fn=1 -> p=1 r=.5 f1=2/3
    val f1 = Metrics.macroF1(Array(0, 1, 1), Array(0, 0, 1), 2)
    assert(math.abs(f1 - 2.0 / 3.0) < 1e-12)
  }

  test("macro F1 counts absent classes as zero") {
    // class 2 never appears: F1_2 = 0 pulls the macro average down.
    val f1 = Metrics.macroF1(Array(0, 1), Array(0, 1), 3)
    assert(math.abs(f1 - 2.0 / 3.0) < 1e-12)
  }

  test("RMSE of exact predictions is 0") {
    assert(Metrics.rmse(Array(1.0, 2.0), Array(1.0, 2.0)) == 0.0)
  }

  test("RMSE matches hand computation") {
    assert(math.abs(Metrics.rmse(Array(0.0, 0.0), Array(3.0, 4.0)) - math.sqrt(12.5)) < 1e-12)
  }

  test("RMSE rejects empty input") {
    intercept[IllegalArgumentException](Metrics.rmse(Array.empty, Array.empty))
  }

  test("taskMetric dispatches AUC for binary tasks") {
    val m = Metrics.taskMetric(BinaryClassification, Array(0, 1), Array(Array(0.2), Array(0.8)))
    assert(m == 1.0)
  }

  test("taskMetric dispatches macro F1 with argmax for multi-class tasks") {
    val scores = Array(Array(0.7, 0.2, 0.1), Array(0.1, 0.8, 0.1))
    assert(Metrics.taskMetric(MultiClassification(3), Array(0.0, 1.0), scores) == 2.0 / 3.0)
  }

  test("taskMetric dispatches RMSE for regression") {
    assert(Metrics.taskMetric(Regression, Array(1.0), Array(Array(3.0))) == 2.0)
  }

  test("higherIsBetter is true except for regression") {
    assert(Metrics.higherIsBetter(BinaryClassification))
    assert(Metrics.higherIsBetter(MultiClassification(4)))
    assert(!Metrics.higherIsBetter(Regression))
  }
}
