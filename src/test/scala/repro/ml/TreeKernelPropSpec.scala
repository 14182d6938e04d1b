package repro.ml

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport
import repro.ml.ReferenceTrees._

/** The presorted CART kernel against the sort-per-node reference: same
  * trees, bit for bit, and the same forest and booster scores.
  */
class TreeKernelPropSpec extends AnyFunSuite with PropSupport {

  /** Heavy ties, signed zeros, constants and negative values. */
  private def column(n: Int): Gen[Array[Double]] = Gen.oneOf(
    Gen.listOfN(n, Gen.oneOf(-1.5, 0.0, 2.0)),
    Gen.listOfN(n, Gen.oneOf(-1.0, -0.0, 0.0, 2.0)),
    Gen.choose(-5.0, 5.0).map(List.fill(n)(_)),
    Gen.listOfN(n, Gen.choose(-10.0, 10.0)),
    Gen.listOfN(n, Gen.choose(-3, 3).map(_.toDouble)),
  ).map(_.toArray)

  /** An n x m matrix, with duplicated rows half of the time. Half of the
    * time it starts with a {-0.0, 0.0, 1.0} column and its twin with the
    * signs of the zeros flipped: which of the two wins a split then hinges
    * on summing the zero group in `Double.compare` order, -0.0 before 0.0.
    */
  private def matrix(n: Int): Gen[Array[Array[Double]]] = for {
    m <- Gen.choose(1, 5)
    drawn <- Gen.listOfN(m, column(n))
    zeros <- Gen.listOfN(n, Gen.oneOf(-0.0, 0.0, 1.0)).map(_.toArray)
    twin <- Gen.oneOf(false, true)
    cols = if (twin) zeros :: zeros.map(v => if (v == 0.0) -v else v) :: drawn else drawn
    rows = Array.tabulate(n)(i => cols.map(_(i)).toArray)
    pick <- Gen.oneOf(Gen.const(rows.indices.toList), Gen.listOfN(n, Gen.choose(0, n - 1)))
  } yield pick.map(rows).toArray

  /** Row counts near the 2 * minSamplesLeaf split threshold, or anywhere up to 80. */
  private def rowCount(minLeaf: Int): Gen[Int] =
    Gen.frequency(1 -> Gen.choose(math.max(1, 2 * minLeaf - 1), 2 * minLeaf + 2), 2 -> Gen.choose(1, 80))

  private val fraction = Gen.oneOf(0.5, 0.7, 1.0)

  private def labels(n: Int, task: Task): Gen[Array[Double]] = (task match {
    case Regression             => Gen.listOfN(n, Gen.oneOf(Gen.choose(-4.0, 4.0), Gen.oneOf(-1.0, 0.0, 1.0)))
    case BinaryClassification   => Gen.listOfN(n, Gen.oneOf(0.0, 1.0))
    case MultiClassification(k) => Gen.listOfN(n, Gen.choose(0, k - 1).map(_.toDouble))
  }).map(_.toArray)

  private def sameScores(a: Array[Array[Double]], b: Array[Array[Double]]): Boolean =
    a.length == b.length && a.indices.forall(i => java.util.Arrays.equals(a(i), b(i)))

  test("presorted trees equal sort-per-node trees bit for bit") {
    val gen = for {
      minLeaf <- Gen.oneOf(1, 2, 4, 5)
      n <- rowCount(minLeaf)
      x <- matrix(n)
      y <- labels(n, Regression)
      depth <- Gen.choose(0, 6)
      ff <- fraction
      seed <- Gen.choose(0L, 1000L)
    } yield (x, y, depth, minLeaf, ff, seed)
    check(Prop.forAll(gen) { case (x, y, depth, minLeaf, ff, seed) =>
      val fast = shape(new RegressionTree(depth, minLeaf, ff, seed).fit(x, y, RegressionTree.presort(x)))
      val ref = new SortPerNodeTree(depth, minLeaf, ff, seed).fit(x, y).shape
      (fast == ref) :| s"presorted $fast\nreference $ref"
    }, minSuccessful = 300)
  }

  test("random forest scores equal the sort-per-node forest's bit for bit") {
    val gen = for {
      task <- Gen.oneOf(BinaryClassification, MultiClassification(4))
      minLeaf <- Gen.oneOf(1, 2, 4)
      n <- rowCount(minLeaf)
      x <- matrix(n)
      y <- labels(n, task)
      ff <- fraction
      seed <- Gen.choose(0L, 1000L)
    } yield (task, x, y, minLeaf, ff, seed)
    check(Prop.forAll(gen) { case (task, x, y, minLeaf, ff, seed) =>
      val data = DenseData(x, y)
      val fast = new RandomForestTrainer(task, numTrees = 4, maxDepth = 5, minLeaf, ff, seed).fit(data)
      val ref = new RandomForest(task, numTrees = 4, maxDepth = 5, minLeaf, ff, seed).fit(data)
      sameScores(fast.scoresAll(x), ref.scoresAll(x)) :| s"$task"
    }, minSuccessful = 60)
  }

  test("gradient boosting scores equal the sort-per-node booster's bit for bit") {
    val gen = for {
      task <- Gen.oneOf(Regression, BinaryClassification, MultiClassification(4))
      minLeaf <- Gen.oneOf(1, 2, 4)
      n <- rowCount(minLeaf)
      x <- matrix(n)
      y <- labels(n, task)
      seed <- Gen.choose(0L, 1000L)
    } yield (task, x, y, minLeaf, seed)
    check(Prop.forAll(gen) { case (task, x, y, minLeaf, seed) =>
      val data = DenseData(x, y)
      val fast = new GradientBoostingTrainer(task, numTrees = 5, maxDepth = 3, 0.2, minLeaf, seed).fit(data)
      val ref = new GradientBoosting(task, numTrees = 5, maxDepth = 3, 0.2, minLeaf, seed).fit(data)
      sameScores(fast.scoresAll(x), ref.scoresAll(x)) :| s"$task"
    }, minSuccessful = 60)
  }
}
