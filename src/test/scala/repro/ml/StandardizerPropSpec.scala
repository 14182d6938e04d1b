package repro.ml

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport

/** The loop sums of [[Standardizer]] and [[DenseData.sum]] against the
  * boxed `Iterator.sum` code they replaced, bit for bit. That sum starts at
  * its first term when its size is known, so a column of -0.0 has mean
  * -0.0; a loop that starts at 0.0 gives 0.0 and flips the sign of every
  * standardized -0.0.
  */
class StandardizerPropSpec extends AnyFunSuite with PropSupport {

  /** The standardized copy of `x` as [[Standardizer]] computed it before its loops. */
  private def referenceStandardize(x: Array[Array[Double]]): Array[Array[Double]] = {
    val n = math.max(1, x.length)
    val m = if (x.isEmpty) 0 else x(0).length
    val mean = Array.tabulate(m)(j => x.iterator.map(_(j)).sum / n)
    val std = Array.tabulate(m) { j =>
      val v = x.iterator.map(r => { val d = r(j) - mean(j); d * d }).sum / n
      val s = math.sqrt(v)
      if (s < 1e-12) 1.0 else s
    }
    x.map(row => Array.tabulate(row.length)(j => (row(j) - mean(j)) / std(j)))
  }

  /** All -0.0, a constant, both zeros, or random values. */
  private def column(n: Int): Gen[Array[Double]] = Gen.oneOf(
    Gen.const(List.fill(n)(-0.0)),
    Gen.choose(-5.0, 5.0).map(List.fill(n)(_)),
    Gen.listOfN(n, Gen.oneOf(-0.0, 0.0)),
    Gen.listOfN(n, Gen.choose(-1e3, 1e3)),
  ).map(_.toArray)

  private def same(a: Array[Array[Double]], b: Array[Array[Double]]): Boolean =
    a.length == b.length && a.indices.forall(i => java.util.Arrays.equals(a(i), b(i)))

  test("fit and transform equal the Iterator.sum reference bit for bit") {
    val gen = for {
      n <- Gen.choose(1, 40)
      m <- Gen.choose(1, 4)
      cols <- Gen.listOfN(m, column(n))
    } yield Array.tabulate(n)(i => cols.map(_(i)).toArray)
    check(Prop.forAll(gen) { x =>
      val std = Standardizer.fit(x)
      val rows = x.map(std.transformRow)
      (same(std.transform(x), referenceStandardize(x)) && same(rows, referenceStandardize(x))) :|
        x.map(_.mkString(",")).mkString(" | ")
    }, minSuccessful = 200)
  }

  test("DenseData.sum equals Iterator.sum bit for bit") {
    val gen = Gen.choose(0, 30).flatMap(column(_))
    check(Prop.forAll(gen) { t =>
      val sum = DenseData.sum(t.length)(t(_))
      (java.lang.Double.compare(sum, t.iterator.map(identity).sum) == 0) :| t.mkString(",")
    }, minSuccessful = 200)
  }
}
