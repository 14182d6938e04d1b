package repro.exp

import repro.SparkSpec
import repro.baselines.FeatureSelectors
import repro.core.{AggFunc, FeatAugConfig}
import repro.data.Datasets
import repro.ml.{LRModel, XGBModel}

/** End-to-end smoke tests of the experiment harness at tiny scale (the
  * bench suites run the full tables at SF=0.1).
  */
class HarnessSpec extends SparkSpec {

  private lazy val budget = Experiments.testBudget
  private lazy val tmall = new Prepared(Datasets.tmallLite(spark, 0.004), budget)
  private lazy val covtype = new Prepared(Datasets.covtypeLite(spark, 0.004), budget)
  private lazy val merchant = new Prepared(Datasets.merchantLite(spark, 0.004), budget)

  test("Prepared aligns keys, base features and labels from one collect") {
    assert(tmall.keyRows.length == tmall.baseX.length)
    assert(tmall.y.length == tmall.baseX.length)
    assert(tmall.baseX(0).length == tmall.td.baseFeatures.size)
    assert(tmall.keyRows(0).size == 2) // composite Tmall key
  }

  test("Prepared extracts a domain for every predicate attribute") {
    assert(tmall.domains.keySet == tmall.td.predAttrs.toSet)
  }

  test("ftCandidates has |F| x |A| members and uses the shared store") {
    val n = tmall.ftCandidates.columns.size
    assert(n == AggFunc.all.size * tmall.td.aggAttrs.size)
    assert(tmall.featureStore.size >= n)
  }

  test("directCandidates materializes one feature per numeric relevant column") {
    assert(covtype.directCandidates.columns.size == covtype.td.directJoinAttrs.size)
    // One-to-one AVG reproduces the column itself.
    val f1 = covtype.directCandidates.columns(covtype.td.directJoinAttrs.indexOf("f1"))
    val raw = covtype.td.relevant.select("data_index", "f1").collect()
      .map(r => r.getLong(0).toString -> r.getDouble(1)).toMap
    covtype.keyRows.zipWithIndex.foreach { case (k, i) =>
      assert(math.abs(f1(i) - raw(k.head)) < 1e-9)
    }
  }

  test("finalMetric returns a valid AUC for binary tasks") {
    val m = tmall.runFT(LRModel)
    assert(m >= 0.0 && m <= 1.0)
  }

  test("finalMetric rejects a non-finite metric, naming dataset, model and feature count") {
    val nan = Array.fill(merchant.y.length)(Double.NaN)
    val e = intercept[IllegalArgumentException](merchant.finalMetric(LRModel, Seq(nan)))
    Seq("Merchant", "LR", "1 feature").foreach(s => assert(e.getMessage.contains(s), e.getMessage))
  }

  test("runFTSelector skips unsupported combinations and runs supported ones") {
    assert(merchant.runFTSelector(LRModel, FeatureSelectors.Chi2Sel).isEmpty)
    assert(tmall.runFTSelector(LRModel, FeatureSelectors.MISel).isDefined)
  }

  test("runRandom and runFeatAug complete and produce valid metrics") {
    val r = tmall.runRandom(LRModel)
    val (f, trace) = tmall.runFeatAug(LRModel, FeatAugConfig(budget = budget, seed = 1))
    assert(r >= 0.0 && r <= 1.0)
    assert(f >= 0.0 && f <= 1.0)
    assert(trace.queries.nonEmpty && trace.realEvaluations > 0)
  }

  test("runARDA and runAutoFeature work on the one-to-one dataset") {
    val a = covtype.runARDA(XGBModel)
    val m = covtype.runAutoFeature(XGBModel, repro.baselines.AutoFeature.MAB)
    assert(a >= 0.0 && a <= 1.0)
    assert(m >= 0.0 && m <= 1.0)
  }

  test("ResultTable renders aligned markdown-style rows") {
    val t = ResultTable("T", Vector("a", "bb"), Vector(Vector("1", "2"), Vector("333", "4")))
    val lines = t.render.linesIterator.toVector
    assert(lines.head == "== T ==")
    assert(lines(1).startsWith("| a"))
    assert(lines.drop(2).forall(_.length == lines(1).length))
  }

  test("Experiments.table rejects an unknown id and names the valid ones") {
    val exp = new Experiments(spark, 0.004, budget)
    val e = intercept[IllegalArgumentException](exp.table("V"))
    assert(e.getMessage.contains("'V'") && e.getMessage.contains("I, II, III, IV, VI, VII, VIII"), e.getMessage)
  }

  test("budgets: bench is larger than test, both valid") {
    assert(Experiments.benchBudget.numFeatures == 40)
    assert(Experiments.testBudget.numFeatures < Experiments.benchBudget.numFeatures)
  }
}
