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

  /** Row counts near the 2 * MinSamplesLeaf split threshold, or anywhere up to 80. */
  private val rowCount: Gen[Int] = {
    val twice = 2 * RegressionTree.MinSamplesLeaf
    Gen.frequency(1 -> Gen.choose(twice - 1, twice + 2), 2 -> Gen.choose(1, 80))
  }

  private val fraction = Gen.oneOf(0.5, 0.7, 1.0)

  private def labels(n: Int, task: Task): Gen[Array[Double]] = (task match {
    case Regression             => Gen.listOfN(n, Gen.oneOf(Gen.choose(-4.0, 4.0), Gen.oneOf(-1.0, 0.0, 1.0)))
    case BinaryClassification   => Gen.listOfN(n, Gen.oneOf(0.0, 1.0))
    case MultiClassification(k) => Gen.listOfN(n, Gen.choose(0, k - 1).map(_.toDouble))
  }).map(_.toArray)

  private def bits(v: Double): Long = java.lang.Double.doubleToRawLongBits(v)

  private def sameScores(a: Array[Array[Double]], b: Array[Array[Double]]): Boolean =
    a.length == b.length && a.indices.forall(i => java.util.Arrays.equals(a(i), b(i)))

  test("presorted trees equal sort-per-node trees bit for bit") {
    val gen = for {
      n <- rowCount
      x <- matrix(n)
      y <- labels(n, Regression)
      depth <- Gen.choose(0, 6)
      ff <- fraction
      seed <- Gen.choose(0L, 1000L)
    } yield (x, y, depth, ff, seed)
    check(Prop.forAll(gen) { case (x, y, depth, ff, seed) =>
      val fast = shape(new RegressionTree(depth, ff, seed).fit(x, y, RegressionTree.presort(x)))
      val ref = new SortPerNodeTree(depth, ff, seed).fit(x, y).shape
      (fast == ref) :| s"presorted $fast\nreference $ref"
    }, minSuccessful = 300)
  }

  test("each training row's routed leaf value is its prediction, bit for bit") {
    val gen = for {
      n <- rowCount
      x <- matrix(n)
      y <- labels(n, Regression)
      depth <- Gen.choose(0, 6)
      ff <- fraction
      seed <- Gen.choose(0L, 1000L)
    } yield (x, y, depth, ff, seed)
    check(Prop.forAll(gen) { case (x, y, depth, ff, seed) =>
      val tree = new RegressionTree(depth, ff, seed)
      val routed = tree.fitRouted(x, y, RegressionTree.presort(x))
      x.indices.forall(i => bits(routed(i)) == bits(tree.predict(x(i))))
    }, minSuccessful = 300)
  }

  /** Regression labels all -0.0, constant, random, or a quarter of them the
    * negative of the least subnormal and the rest 0.0: the last leave no
    * split worth its gain, and most root leaves round to -0.0, so a forest's
    * or booster's sum of trees is -0.0 only if it starts at its first term.
    */
  private def sumLabels(n: Int): Gen[Array[Double]] = Gen.oneOf(
    Gen.const(Array.fill(n)(-0.0)),
    Gen.choose(-5.0, 5.0).map(Array.fill(n)(_)),
    Gen.listOfN(n, Gen.choose(-4.0, 4.0)).map(_.toArray),
    Gen.listOfN(n, Gen.frequency(1 -> -Double.MinPositiveValue, 3 -> 0.0)).map(_.toArray),
  )

  test("regression forest and booster sums equal the reference's bit for bit, -0.0 included") {
    val gen = for {
      n <- rowCount
      x <- matrix(n)
      y <- sumLabels(n)
      seed <- Gen.choose(0L, 1000L)
    } yield (x, y, seed)
    check(Prop.forAll(gen) { case (x, y, seed) =>
      val data = DenseData(x, y)
      val forest = sameScores(new RandomForestTrainer(Regression, numTrees = 4, seed).fit(data).scoresAll(x),
        new RandomForest(Regression, numTrees = 4, seed).fit(data).scoresAll(x))
      val booster = sameScores(new GradientBoostingTrainer(Regression, numTrees = 5, seed).fit(data).scoresAll(x),
        new GradientBoosting(Regression, numTrees = 5, seed).fit(data).scoresAll(x))
      (forest :| "forest") && (booster :| "booster")
    }, minSuccessful = 100)
  }

  test("random forest scores equal the sort-per-node forest's bit for bit") {
    val gen = for {
      task <- Gen.oneOf(BinaryClassification, MultiClassification(4))
      n <- rowCount
      x <- matrix(n)
      y <- labels(n, task)
      seed <- Gen.choose(0L, 1000L)
    } yield (task, x, y, seed)
    check(Prop.forAll(gen) { case (task, x, y, seed) =>
      val data = DenseData(x, y)
      val fast = new RandomForestTrainer(task, numTrees = 4, seed).fit(data)
      val ref = new RandomForest(task, numTrees = 4, seed).fit(data)
      sameScores(fast.scoresAll(x), ref.scoresAll(x)) :| s"$task"
    }, minSuccessful = 60)
  }

  test("gradient boosting scores equal the sort-per-node booster's bit for bit") {
    val gen = for {
      task <- Gen.oneOf(Regression, BinaryClassification, MultiClassification(4))
      n <- rowCount
      x <- matrix(n)
      y <- labels(n, task)
      seed <- Gen.choose(0L, 1000L)
    } yield (task, x, y, seed)
    check(Prop.forAll(gen) { case (task, x, y, seed) =>
      val data = DenseData(x, y)
      val fast = new GradientBoostingTrainer(task, numTrees = 5, seed).fit(data)
      val ref = new GradientBoosting(task, numTrees = 5, seed).fit(data)
      sameScores(fast.scoresAll(x), ref.scoresAll(x)) :| s"$task"
    }, minSuccessful = 60)
  }
}
