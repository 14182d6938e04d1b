package repro.proxy

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport
import repro.ml.{BinaryClassification, MultiClassification, Regression, Task}

/** The primitive binning and MI kernels against [[ReferenceAssociation]]:
  * the same bins and the same MI, bit for bit.
  */
class AssociationPropSpec extends AnyFunSuite with PropSupport {

  private def bits(v: Double): Long = java.lang.Double.doubleToRawLongBits(v)

  /** Ties, signed zeros, a constant, a few levels or continuous values. */
  private def column(n: Int): Gen[Array[Double]] = Gen.oneOf(
    Gen.listOfN(n, Gen.oneOf(-1.5, 0.0, 2.0)),
    Gen.listOfN(n, Gen.oneOf(-1.0, -0.0, 0.0, 2.0)),
    Gen.choose(-5.0, 5.0).map(List.fill(n)(_)),
    Gen.listOfN(n, Gen.choose(0, 7).map(_.toDouble)),
    Gen.listOfN(n, Gen.choose(-10.0, 10.0)),
  ).map(_.toArray)

  private def labels(n: Int, task: Task): Gen[Array[Double]] = (task match {
    case Regression             => Gen.listOfN(n, Gen.oneOf(Gen.choose(-4.0, 4.0), Gen.oneOf(-1.0, 0.0, 1.0)))
    case BinaryClassification   => Gen.listOfN(n, Gen.oneOf(0.0, 1.0))
    case MultiClassification(k) => Gen.listOfN(n, Gen.choose(0, k - 1).map(_.toDouble))
  }).map(_.toArray)

  private val cases: Gen[(Array[Double], Array[Double], Task)] = for {
    n <- Gen.frequency(1 -> Gen.choose(1, 12), 3 -> Gen.choose(13, 300))
    task <- Gen.oneOf(BinaryClassification, MultiClassification(4), Regression)
    f <- column(n)
    y <- labels(n, task)
  } yield (f, y, task)

  test("equalFreqBins and mutualInformation equal the boxed reference bit for bit (property)") {
    check(Prop.forAll(cases) { case (f, y, task) =>
      val bins = Association.equalFreqBins(f)
      val (mi, ref) = (Association.mutualInformation(f, y, task), ReferenceAssociation.mutualInformation(f, y, task))
      (bins.sameElements(ReferenceAssociation.equalFreqBins(f)) :| "bins") &&
        (Association.labelBins(y, task).sameElements(ReferenceAssociation.labelBins(y, task)) :| "label bins") &&
        ((bits(mi) == bits(ref)) :| s"MI $mi, reference $ref")
    }, minSuccessful = 500)
  }

  test("miFromBins sums in the reference's order when updates of counted cells grow its map") {
    // 11 cells: inserting them leaves a 16-slot table (the 12th entry grows
    // it), but the reference updates a counted cell afterwards, and that
    // update grows its table to 32 slots, which changes the order of its sum.
    val cells = (0 until 11).map(c => (c / 2, c % 2))
    for (extra <- 0 to 3) {
      val rows = cells ++ Vector.fill(extra)(cells(3))
      val (xb, yb) = (rows.map(_._1).toArray, rows.map(_._2).toArray)
      assert(bits(Association.miFromBins(xb, yb)) == bits(ReferenceAssociation.miFromBins(xb, yb)), s"extra=$extra")
    }
    check(Prop.forAll(Gen.choose(1, 400).flatMap { n =>
      Gen.zip(Gen.listOfN(n, Gen.choose(0, 9)), Gen.listOfN(n, Gen.choose(0, 5)))
    }) { case (xs, ys) =>
      val (xb, yb) = (xs.toArray, ys.toArray)
      bits(Association.miFromBins(xb, yb)) == bits(ReferenceAssociation.miFromBins(xb, yb))
    }, minSuccessful = 500)
  }
}
