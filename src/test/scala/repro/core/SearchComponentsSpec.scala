package repro.core

import repro.SparkSpec
import repro.exp.Experiments
import repro.ml.{BinaryClassification, LRModel}
import repro.proxy.MIProxy

/** SQL Query Generation (Section V) and Query Template Identification
  * (Section VI) over the planted MiniData fixture.
  */
class SearchComponentsSpec extends SparkSpec with MiniData {

  private val budget = Experiments.testBudget

  private def mkEvaluator() =
    new Evaluator(executor, baseX, yArr, BinaryClassification, LRModel, split, MIProxy, seed = 7,
      featureStore = scala.collection.mutable.HashMap.empty)

  private def mkCodec(p: Vector[String]): QueryVectorCodec =
    new QueryVectorCodec(template.copy(predAttrs = p), domains)

  test("generate returns distinct queries ranked by loss ascending") {
    val res = SqlQueryGeneration.generate(codec, mkEvaluator(), budget, useWarmup = true, seed = 1)
    assert(res.nonEmpty)
    assert(res.map(_._1.cacheKey).distinct.size == res.size)
    assert(res.map(_._2) == res.map(_._2).sorted)
  }

  test("warm-up evaluates proxy queries before real ones (cost accounting)") {
    val ev = mkEvaluator()
    SqlQueryGeneration.generate(codec, ev, budget, useWarmup = true, seed = 2)
    // Real evals are bounded by warmupTopK + genIters; proxy evals add more
    // query executions on top.
    assert(ev.realEvaluations <= budget.warmupTopK + budget.genIters)
    assert(ev.queryExecutions >= ev.realEvaluations)
  }

  test("NoWU spends the same real-evaluation budget without proxy evals") {
    val ev = mkEvaluator()
    SqlQueryGeneration.generate(codec, ev, budget, useWarmup = false, seed = 2)
    assert(ev.realEvaluations <= budget.warmupTopK + budget.genIters)
    assert(ev.queryExecutions == ev.realEvaluations) // no proxy round
  }

  test("the searched best query beats the median of random queries") {
    val best = SqlQueryGeneration.generate(codec, mkEvaluator(), budget, useWarmup = true, seed = 3)
      .head._2
    val rnd = SqlQueryGeneration.generateRandom(codec, mkEvaluator(), budget, seed = 3)
    val med = rnd.map(_._2).sorted.apply(rnd.size / 2)
    assert(best <= med, s"best $best vs random median $med")
  }

  test("generateRandom is deterministic in seed") {
    val a = SqlQueryGeneration.generateRandom(codec, mkEvaluator(), budget, seed = 4).map(_._1.cacheKey)
    val b = SqlQueryGeneration.generateRandom(codec, mkEvaluator(), budget, seed = 4).map(_._1.cacheKey)
    assert(a == b)
  }

  test("QTI evaluates every singleton in layer 1") {
    val res = QueryTemplateIdentification.identify(
      Vector("cat", "t"), mkCodec, mkEvaluator(), budget, usePredictor = true, seed = 5)
    val singles = res.nodes.filter(_.pAttrs.size == 1).map(_.pAttrs.head).toSet
    assert(singles == Set("cat", "t"))
  }

  test("QTI explores deeper layers up to beamDepth") {
    val res = QueryTemplateIdentification.identify(
      Vector("cat", "t"), mkCodec, mkEvaluator(), budget.copy(beamDepth = 2), usePredictor = true, seed = 6)
    assert(res.nodes.exists(_.pAttrs.size == 2))
    assert(res.nodes.forall(_.pAttrs.size <= 2))
  }

  test("QTI ranks the signal-bearing combination {cat, t} at the top") {
    val res = QueryTemplateIdentification.identify(
      Vector("cat", "t"), mkCodec, mkEvaluator(),
      budget.copy(qtiProxyIters = 10), usePredictor = false, seed = 7)
    val top = res.ranked.head.pAttrs.toSet
    assert(top == Set("cat", "t"), s"top template $top\n${res.ranked}")
  }

  test("the predictor variant evaluates no more templates than pure beam search") {
    val attrs = Vector("cat", "t")
    val withP = QueryTemplateIdentification.identify(
      attrs, mkCodec, mkEvaluator(), budget, usePredictor = true, seed = 8)
    val withoutP = QueryTemplateIdentification.identify(
      attrs, mkCodec, mkEvaluator(), budget, usePredictor = false, seed = 8)
    assert(withP.templatesEvaluated <= withoutP.templatesEvaluated)
  }

  test("QTI topN never returns duplicates") {
    val res = QueryTemplateIdentification.identify(
      Vector("cat", "t"), mkCodec, mkEvaluator(), budget, usePredictor = true, seed = 9)
    val keys = res.topN(10).map(_.sorted.mkString(","))
    assert(keys.distinct == keys)
  }

  test("QTI rejects an empty attribute set") {
    intercept[IllegalArgumentException](QueryTemplateIdentification.identify(
      Vector.empty, mkCodec, mkEvaluator(), budget, usePredictor = true, seed = 0L))
  }

  test("FeatAug end-to-end returns at most nTemplates x queriesPerTemplate distinct queries") {
    val cfg = FeatAugConfig(budget = budget, seed = 10)
    val res = FeatAug.selectQueries(Vector("cat", "t"), mkCodec, mkEvaluator(), cfg)
    assert(res.queries.nonEmpty)
    assert(res.queries.size <= budget.numFeatures)
    assert(res.queries.map(_.cacheKey).distinct.size == res.queries.size)
    assert(res.templates.nonEmpty)
  }

  test("FeatAug NoQTI uses the single user-provided template") {
    val cfg = FeatAugConfig(useQTI = false, budget = budget, seed = 10)
    val res = FeatAug.selectQueries(Vector("cat", "t"), mkCodec, mkEvaluator(), cfg)
    assert(res.templates == Vector(Vector("cat", "t")))
  }

  test("FeatAug random variant produces distinct queries from random templates") {
    val res = FeatAug.selectQueriesRandom(Vector("cat", "t"), mkCodec, mkEvaluator(), budget, seed = 11)
    assert(res.queries.nonEmpty)
    assert(res.queries.map(_.cacheKey).distinct.size == res.queries.size)
    res.templates.foreach(p => assert(p.nonEmpty && p.toSet.subsetOf(Set("cat", "t"))))
  }

  test("SearchBudget validates positivity") {
    intercept[IllegalArgumentException](Experiments.benchBudget.copy(warmupIters = 0))
    intercept[IllegalArgumentException](Experiments.benchBudget.copy(beamWidth = 0))
    assert(Experiments.benchBudget.numFeatures == 40) // paper: 8 templates x 5 queries
  }
}
