package repro.ml

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport

class MetricsPropSpec extends AnyFunSuite with PropSupport {

  private val labeled = for {
    n <- Gen.choose(4, 60)
    ys <- Gen.listOfN(n, Gen.oneOf(0.0, 1.0))
    ss <- Gen.listOfN(n, Gen.choose(0.0, 1.0))
  } yield (ys.toArray, ss.toArray)

  test("AUC is always in [0, 1]") {
    check(Prop.forAll(labeled) { case (y, s) =>
      val a = Metrics.auc(y, s)
      a >= 0.0 && a <= 1.0
    })
  }

  test("AUC flips under score negation (distinct scores, both classes)") {
    check(Prop.forAll(labeled) { case (y, s) =>
      (y.toSet.size == 2 && s.toSet.size == s.length) ==>
        (math.abs(Metrics.auc(y, s) + Metrics.auc(y, s.map(-_)) - 1.0) < 1e-9)
    })
  }

  test("AUC is invariant under monotone score transforms") {
    check(Prop.forAll(labeled) { case (y, s) =>
      math.abs(Metrics.auc(y, s) - Metrics.auc(y, s.map(v => math.exp(2 * v)))) < 1e-9
    })
  }

  test("RMSE is non-negative and zero for identical arrays") {
    check(Prop.forAll(labeled) { case (y, s) =>
      Metrics.rmse(y, s) >= 0.0 && Metrics.rmse(y, y) == 0.0
    })
  }

  test("macro F1 is in [0, 1]") {
    val g = Gen.listOfN(30, Gen.choose(0, 3))
    check(Prop.forAll(g, g) { (a, b) =>
      val f1 = Metrics.macroF1(a.toArray, b.toArray, 4)
      f1 >= 0.0 && f1 <= 1.0
    })
  }
}
