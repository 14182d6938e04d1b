package repro.proxy

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport
import repro.ml.{BinaryClassification, Metrics, MultiClassification, Regression}
import scala.util.Random

class AssociationSpec extends AnyFunSuite with PropSupport {

  test("equal-frequency bins are balanced on distinct values") {
    val bins = Association.equalFreqBins(Array.tabulate(100)(_.toDouble))
    val sizes = bins.groupBy(identity).view.mapValues(_.length).toMap
    assert(sizes.size == Association.Bins)
    assert(sizes.values.forall(s => s >= 8 && s <= 12), sizes.toString)
  }

  test("equal-frequency bins put a constant column into one bin") {
    val bins = Association.equalFreqBins(Array.fill(20)(3.14))
    assert(bins.toSet == Set(0))
  }

  test("equal-frequency bins keep ties in the same bin") {
    // 30 tied values span the first three bins' quantile edges.
    val bins = Association.equalFreqBins(Array.fill(30)(1.0) ++ Array.tabulate(70)(_ + 2.0))
    assert(bins.take(30).toSet.size == 1)
    assert(bins.drop(30).forall(_ > bins(0)))
  }

  test("labelBins uses class ids for classification and bins for regression") {
    val y = Array(0.0, 1.0, 2.0, 1.0)
    assert(Association.labelBins(y, MultiClassification(3)).toSeq == Seq(0, 1, 2, 1))
    val reg = Association.labelBins(Array.tabulate(100)(_.toDouble), Regression)
    assert(reg.distinct.length == Association.Bins)
  }

  test("MI of a label with itself is its entropy (log 2 for balanced binary)") {
    val y = Array.tabulate(100)(i => (i % 2).toDouble)
    val mi = Association.mutualInformation(y, y, BinaryClassification)
    assert(math.abs(mi - math.log(2)) < 1e-9)
  }

  test("MI of an independent feature is near zero") {
    val rnd = new Random(1)
    val y = Array.tabulate(2000)(i => (i % 2).toDouble)
    val f = Array.fill(2000)(rnd.nextGaussian())
    val mi = Association.mutualInformation(f, y, BinaryClassification)
    assert(mi < 0.02, s"MI $mi")
  }

  test("MI ranks an informative feature above a noise feature") {
    val rnd = new Random(2)
    val y = Array.fill(500)(if (rnd.nextBoolean()) 1.0 else 0.0)
    val signal = y.map(v => v * 2 + rnd.nextGaussian() * 0.3)
    val noise = Array.fill(500)(rnd.nextGaussian())
    assert(Association.mutualInformation(signal, y, BinaryClassification) >
      Association.mutualInformation(noise, y, BinaryClassification))
  }

  test("MI is non-negative (property)") {
    val g = for {
      n <- Gen.choose(10, 200)
      f <- Gen.listOfN(n, Gen.choose(-5.0, 5.0))
      y <- Gen.listOfN(n, Gen.oneOf(0.0, 1.0))
    } yield (f.toArray, y.toArray)
    check(Prop.forAll(g) { case (f, y) =>
      Association.mutualInformation(f, y, BinaryClassification) >= -1e-12
    })
  }

  test("Spearman is 1 for any strictly monotone relationship") {
    val x = Array.tabulate(50)(_.toDouble)
    assert(math.abs(Association.spearman(x, x.map(v => math.exp(v / 10))) - 1.0) < 1e-9)
  }

  test("Spearman uses absolute value (decreasing relationships score 1)") {
    val x = Array.tabulate(50)(_.toDouble)
    assert(math.abs(Association.spearman(x, x.map(-_)) - 1.0) < 1e-9)
  }

  test("Spearman of a constant column is 0") {
    assert(Association.spearman(Array.fill(10)(1.0), Array.tabulate(10)(_.toDouble)) == 0.0)
  }

  test("Spearman of independent noise is small") {
    val rnd = new Random(3)
    val a = Array.fill(3000)(rnd.nextGaussian())
    val b = Array.fill(3000)(rnd.nextGaussian())
    assert(Association.spearman(a, b) < 0.06)
  }

  test("ranks average ties") {
    assert(Metrics.ranks(Array(1.0, 2.0, 2.0, 3.0)).toSeq == Seq(1.0, 2.5, 2.5, 4.0))
  }

  test("chi2 is large for a perfectly dependent feature and ~0 for constants") {
    val y = Array.tabulate(100)(i => (i % 2).toDouble)
    val f = y.map(_ * 10)
    assert(Association.chi2(f, y) > 90)
    assert(Association.chi2(Array.fill(100)(1.0), y) < 1e-9)
  }

  test("gini gain is positive for an informative feature, zero for constants") {
    val y = Array.tabulate(100)(i => (i % 2).toDouble)
    val f = y.map(_ * 10 + 1)
    assert(Association.giniGain(f, y) > 0.4)
    assert(math.abs(Association.giniGain(Array.fill(100)(1.0), y)) < 1e-12)
  }

  test("gini gain never exceeds parent impurity (property)") {
    val g = for {
      n <- Gen.choose(10, 150)
      f <- Gen.listOfN(n, Gen.choose(-5.0, 5.0))
      y <- Gen.listOfN(n, Gen.oneOf(0.0, 1.0, 2.0))
    } yield (f.toArray, y.toArray)
    check(Prop.forAll(g) { case (f, y) =>
      val gain = Association.giniGain(f, y)
      gain >= -1e-12 && gain <= 1.0
    })
  }

  test("proxy kinds expose their paper names") {
    assert(MIProxy.name == "MI" && SCProxy.name == "SC" && LRProxy.name == "LR")
  }
}
