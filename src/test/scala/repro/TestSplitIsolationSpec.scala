package repro

import scala.collection.mutable
import scala.util.Random
import repro.baselines.{ARDA, AutoFeature, FeatureSelectors}
import repro.core._
import repro.ml._
import repro.proxy.{Association, LRProxy, MIProxy, SCProxy}

/** Search never sees the test split: with the label of every test row
  * flipped, every score the search and the baselines compute stays the same
  * to the last bit. Only `Prepared.finalMetric` may read the test rows.
  */
class TestSplitIsolationSpec extends SparkSpec with MiniData {

  /** `y` with every binary label of `split.test` flipped. */
  private def flipTest(y: Array[Double], split: Splits.Split): Array[Double] = {
    val out = y.clone()
    split.test.foreach(i => out(i) = 1.0 - out(i))
    out
  }

  private def bits(v: Double): Long = java.lang.Double.doubleToRawLongBits(v)

  private val queries = for {
    agg <- Vector(AggFunc.Sum, AggFunc.Count, AggFunc.Max)
    preds <- Vector(Vector.empty,
      Vector(Predicate("cat", Some("A"), None, None), Predicate("t", None, Some(5.0), None)))
  } yield QuerySpec(agg, "amt", preds, Vector("uid"))

  test("the flipped labels change a score that reads the test rows") {
    val f = executor.featureValues(queries(1))
    val all = Array.range(0, nUsers)
    val flipped = flipTest(yArr, split)
    assert(split.test.exists(i => flipped(i) != yArr(i)))
    assert(Models.splitMetric(LRModel, BinaryClassification, DenseData.appendColumns(baseX, Seq(f), yArr),
      split.train, split.test, seed = 7L, fast = true) !=
      Models.splitMetric(LRModel, BinaryClassification, DenseData.appendColumns(baseX, Seq(f), flipped),
        split.train, split.test, seed = 7L, fast = true))
    assert(Association.mutualInformation(all.map(f), all.map(yArr), BinaryClassification) !=
      Association.mutualInformation(all.map(f), all.map(flipped), BinaryClassification))
  }

  test("Evaluator proxy scores and real losses ignore test labels, for every model and proxy") {
    def scores(y: Array[Double]) = for {
      kind <- Vector(LRModel, XGBModel, RFModel, DeepFMModel)
      proxy <- Vector(MIProxy, SCProxy, LRProxy)
    } yield {
      val ev = new Evaluator(executor, baseX, y, BinaryClassification, kind, split, proxy, seed = 7L,
        featureStore = mutable.HashMap.empty)
      queries.map(q => (bits(ev.proxyScore(q)), bits(ev.realLoss(q))))
    }
    assert(scores(yArr) == scores(flipTest(yArr, split)))
  }

  /** A binary candidate pool whose columns are drawn once, from the
    * unflipped labels: one signal, one weak and eight noise columns.
    */
  private val (poolBase, poolCands, poolY) = {
    val rnd = new Random(21)
    val y = Array.fill(200)(if (rnd.nextBoolean()) 1.0 else 0.0)
    val base = Array.fill(200)(Array(rnd.nextGaussian()))
    val signal = y.map(v => v * 2 + rnd.nextGaussian() * 0.2)
    val weak = y.map(v => v + rnd.nextGaussian() * 2.0)
    (base, signal +: weak +: Vector.fill(8)(Array.fill(200)(rnd.nextGaussian())), y)
  }
  private val poolSplit = Splits.threeWay(200, seed = 1L)

  /** `select` on the pool's labels and on the same labels with test rows
    * flipped. Callers ask for every candidate, so a selector returns its
    * whole ranking and a score that read a test row would likely reorder it.
    */
  private def bothWays(select: Array[Double] => Vector[Int]): (Vector[Int], Vector[Int]) =
    (select(poolY), select(flipTest(poolY, poolSplit)))

  for (sel <- FeatureSelectors.all) {
    test(s"${sel.name} selects the same candidates whatever the test labels") {
      val (a, b) = bothWays(y => FeatureSelectors.select(sel, poolBase, poolCands, y, BinaryClassification,
        XGBModel, poolSplit, k = poolCands.size))
      assert(a == b)
    }
  }

  test("ARDA selects the same candidates whatever the test labels") {
    // Over the noise columns alone, which of them beat ARDA's injected noise
    // is fragile, so a fit that read a test row would likely change the set.
    val noise = poolCands.drop(2)
    val (a, b) = bothWays(y => ARDA.select(poolBase, noise, y, BinaryClassification, poolSplit, k = noise.size,
      seed = 7L))
    assert(a == b)
  }

  for (agent <- Seq(AutoFeature.MAB, AutoFeature.DQN)) {
    test(s"${agent.name} selects the same candidates whatever the test labels") {
      val (a, b) = bothWays(y => AutoFeature.select(agent, poolBase, poolCands, y, BinaryClassification,
        XGBModel, poolSplit, k = poolCands.size, seed = 7L))
      assert(a == b)
    }
  }
}
