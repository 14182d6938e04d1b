package repro.ml

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport

/** [[RegressionTree.presort]]'s counting sort against a comparison sort of
  * packed `(rank << 32) | position` longs, the order it must reproduce.
  */
class PresortPropSpec extends AnyFunSuite with PropSupport {

  private def packedSort(rank: Array[Int], sample: Array[Int]): Array[Int] = {
    val keys = Array.tabulate(sample.length)(p => (rank(sample(p)).toLong << 32) | p)
    java.util.Arrays.sort(keys)
    keys.map(_.toInt)
  }

  test("presort from ranks orders each feature as the packed-key sort does (property)") {
    val g = for {
      n <- Gen.choose(1, 60)
      m <- Gen.choose(1, 4)
      x <- Gen.listOfN(n, Gen.listOfN(m, Gen.oneOf(Gen.oneOf(-0.0, 0.0, 1.0, 2.0), Gen.choose(-3.0, 3.0))))
      size <- Gen.choose(0, 2 * n)
      sample <- Gen.oneOf(Gen.const((0 until n).toList), Gen.listOfN(size, Gen.choose(0, n - 1)))
    } yield (x.map(_.toArray).toArray, sample.toArray)
    check(Prop.forAll(g) { case (x, sample) =>
      val ranks = RegressionTree.ranks(x)
      RegressionTree.presort(ranks, sample).toSeq.map(_.toSeq) == ranks.toSeq.map(packedSort(_, sample).toSeq)
    }, minSuccessful = 300)
  }
}
