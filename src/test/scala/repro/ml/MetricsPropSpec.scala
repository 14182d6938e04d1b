package repro.ml

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport
import repro.proxy.Association

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

  /** Scores with ties, with both zeros, with one NaN, all NaN, or random. */
  private def scores(n: Int): Gen[Array[Double]] = Gen.oneOf(
    Gen.listOfN(n, Gen.oneOf(-1.0, 0.5, 2.0)).map(_.toArray),
    Gen.listOfN(n, Gen.oneOf(-0.0, 0.0, 1.0)).map(_.toArray),
    for {
      s <- Gen.listOfN(n, Gen.choose(-1.0, 1.0))
      at <- Gen.choose(0, n - 1)
    } yield s.toArray.updated(at, Double.NaN),
    Gen.const(Array.fill(n)(Double.NaN)),
    Gen.listOfN(n, Gen.choose(-1e3, 1e3)).map(_.toArray),
  )

  private def bits(a: Array[Double]): List[Long] = a.toList.map(java.lang.Double.doubleToRawLongBits)

  test("ranks, AUC and Spearman equal the boxed-sort reference bit for bit") {
    val gen = for {
      n <- Gen.choose(2, 60)
      s <- scores(n)
      f <- scores(n)
      y <- Gen.listOfN(n, Gen.oneOf(0.0, 1.0))
    } yield (s, f, y.toArray)
    check(Prop.forAll(gen) { case (s, f, y) =>
      val same = bits(Metrics.ranks(s)) == bits(ReferenceMetrics.ranks(s)) &&
        bits(Array(Metrics.auc(y, s))) == bits(Array(ReferenceMetrics.auc(y, s))) &&
        bits(Array(Association.spearman(f, s))) == bits(Array(ReferenceMetrics.spearman(f, s)))
      same :| s"scores ${s.mkString(",")} feature ${f.mkString(",")}"
    }, minSuccessful = 300)
  }

  test("macro F1 is in [0, 1]") {
    val g = Gen.listOfN(30, Gen.choose(0, 3))
    check(Prop.forAll(g, g) { (a, b) =>
      val f1 = Metrics.macroF1(a.toArray, b.toArray, 4)
      f1 >= 0.0 && f1 <= 1.0
    })
  }
}
