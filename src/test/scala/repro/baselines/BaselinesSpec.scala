package repro.baselines

import repro.SparkSpec
import repro.core.{AggFunc, MiniData}
import repro.ml._
import scala.util.Random

/** Featuretools generation + the seven selectors + ARDA + AutoFeature over
  * a planted candidate pool.
  */
class BaselinesSpec extends SparkSpec with MiniData {

  test("Featuretools enumerates |F| x |A| predicate-free queries") {
    val specs = template.predicateFreeQueries
    assert(specs.size == template.aggFuncs.size * template.aggAttrs.size)
    assert(specs.forall(_.preds.isEmpty))
    assert(specs.forall(_.keys == template.keys))
  }

  test("Featuretools enumeration order is deterministic") {
    val a = template.predicateFreeQueries.map(_.cacheKey)
    val b = template.predicateFreeQueries.map(_.cacheKey)
    assert(a == b)
  }

  test("Featuretools materializes aligned feature columns through Spark") {
    val specs = template.predicateFreeQueries
    val feats = specs.map(executor.featureValues)
    assert(feats.forall(_.length == nUsers))
    val sumAmt = feats(specs.indexWhere(q => q.agg == AggFunc.Sum && q.aggAttr == "amt"))
    // compare against hand-computed per-user sums
    val expect = relevantRows.groupBy(_._1).view.mapValues(_.map(_._3).sum).toMap
    trainRows.zipWithIndex.foreach { case ((u, _, _), i) =>
      assert(math.abs(sumAmt(i) - expect.getOrElse(u, 0.0)) < 1e-6)
    }
  }

  // A synthetic candidate pool with one planted signal feature.
  // Candidate 0 is the signal, 1 a weak signal, 2 to 9 pure noise.
  private def pool(n: Int, seed: Long): CandidatePool = {
    val rnd = new Random(seed)
    val y = Array.fill(n)(if (rnd.nextBoolean()) 1.0 else 0.0)
    val base = Array.fill(n)(Array(rnd.nextGaussian()))
    val signal = y.map(v => v * 2 + rnd.nextGaussian() * 0.2)
    val weak = y.map(v => v + rnd.nextGaussian() * 2.0)
    val noise = Vector.fill(8)(Array.fill(n)(rnd.nextGaussian()))
    CandidatePool(base, signal +: weak +: noise, y, BinaryClassification, poolSplit.train, poolSplit.valid)
  }

  private val poolSplit = Splits.threeWay(200, 1)

  test("CandidatePool.top scores each candidate once and keeps pool order on ties") {
    val p = pool(200, 14)
    val scores = Vector(1.0, 3.0, 1.0, 3.0, 2.0, 0.0, 2.0, 3.0, 0.0, 1.0)
    val calls = new Array[Int](p.columns.size)
    val got = p.top(4) { c => calls(c) += 1; scores(c) }
    assert(got == Vector(1, 3, 7, 4))
    assert(calls.forall(_ == 1), calls.mkString(","))
  }

  for (sel <- FeatureSelectors.all) {
    test(s"${sel.name} returns k distinct valid indices") {
      val p = pool(200, 3)
      val idx = FeatureSelectors.select(sel, p, LRModel, k = 4)
      assert(idx.size == 4)
      assert(idx.distinct == idx)
      assert(idx.forall(i => i >= 0 && i < p.columns.size))
    }
  }

  test("filter selectors rank the planted signal feature first") {
    val p = pool(200, 4)
    Seq(FeatureSelectors.MISel, FeatureSelectors.Chi2Sel, FeatureSelectors.GiniSel).foreach { sel =>
      val idx = FeatureSelectors.select(sel, p, LRModel, k = 2)
      assert(idx.head == 0, s"${sel.name} picked ${idx.head}")
    }
  }

  test("embedded selectors (LR, GBDT) include the signal feature in the top 2") {
    val p = pool(200, 5)
    Seq(FeatureSelectors.LRSel, FeatureSelectors.GBDTSel).foreach { sel =>
      val idx = FeatureSelectors.select(sel, p, LRModel, k = 2)
      assert(idx.contains(0), s"${sel.name} picked $idx")
    }
  }

  test("forward selection picks the signal feature first") {
    val p = pool(200, 6)
    val idx = FeatureSelectors.select(FeatureSelectors.ForwardSel, p, LRModel, k = 3)
    assert(idx.head == 0, s"picked $idx")
  }

  test("backward elimination keeps the signal feature") {
    val p = pool(200, 7)
    val idx = FeatureSelectors.select(FeatureSelectors.BackwardSel, p, LRModel, k = 3)
    assert(idx.contains(0), s"kept $idx")
  }

  test("Chi2/Gini do not support regression; others do") {
    assert(!FeatureSelectors.supports(FeatureSelectors.Chi2Sel, Regression))
    assert(!FeatureSelectors.supports(FeatureSelectors.GiniSel, Regression))
    assert(FeatureSelectors.supports(FeatureSelectors.MISel, Regression))
    assert(FeatureSelectors.supports(FeatureSelectors.ForwardSel, Regression))
  }

  test("ARDA keeps the signal feature and drops most pure-noise features") {
    val p = pool(200, 8)
    val idx = ARDA.select(p, k = 5, seed = 8)
    assert(idx.contains(0), s"ARDA kept $idx")
    assert(idx.size <= 5)
  }

  test("ARDA never returns an empty selection") {
    val p = pool(200, 9)
    // All-noise pool: force via shuffled labels.
    val shuffled = new Random(9).shuffle(p.y.toList).toArray
    val idx = ARDA.select(p.copy(y = shuffled), k = 5, seed = 9)
    assert(idx.nonEmpty)
  }

  test("AutoFeature MAB selects improving features including the signal") {
    val p = pool(200, 10)
    val idx = AutoFeature.select(AutoFeature.MAB, p, LRModel, k = 5, seed = 10)
    assert(idx.contains(0), s"MAB selected $idx")
    assert(idx.size <= 5 && idx.distinct == idx)
  }

  test("AutoFeature DQN selects a non-empty improving set") {
    val p = pool(200, 11)
    val idx = AutoFeature.select(AutoFeature.DQN, p, LRModel, k = 5, seed = 11)
    assert(idx.nonEmpty && idx.size <= 5 && idx.distinct == idx)
  }

  test("AutoFeature is deterministic in seed") {
    val p = pool(200, 12)
    val a = AutoFeature.select(AutoFeature.DQN, p, LRModel, k = 4, seed = 3)
    val b = AutoFeature.select(AutoFeature.DQN, p, LRModel, k = 4, seed = 3)
    assert(a == b)
  }

  test("evalSet returns a higher score when the signal feature is included") {
    val p = pool(200, 13)
    val withSig = p.evalSet(Vector(0), LRModel, 7)
    val withoutSig = p.evalSet(Vector(2), LRModel, 7)
    assert(withSig > withoutSig)
  }
}
