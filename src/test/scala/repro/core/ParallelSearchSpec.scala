package repro.core

import repro.SparkSpec
import repro.exp.Experiments
import repro.ml.{BinaryClassification, LRModel}
import repro.proxy.{LRProxy, MIProxy, ProxyKind}

/** The concurrent search must select exactly what the sequential reference
  * ([[ReferenceSearch]]) selects: QTI nodes in the same order with the same
  * score bits, the same templates, the same queries in the same order and
  * the same cost counts.
  */
class ParallelSearchSpec extends SparkSpec with MiniData {

  // Three attributes and a beam of one, so the layer-2 candidates outnumber
  // the beam and QTI's predictor picks which ones to evaluate.
  private val attrs = Vector("cat", "t", "amt")
  private val budget = Experiments.testBudget.copy(beamWidth = 1, beamDepth = 3)
  private lazy val domains3 = SearchSpace.domains(relevant, attrs, budget.maxCats, budget.numQuantiles)
  private def mkCodec(p: Vector[String]) = new QueryVectorCodec(template.copy(predAttrs = p), domains3)
  private def mkEvaluator(proxy: ProxyKind) =
    new Evaluator(executor, baseX, yArr, BinaryClassification, LRModel, split, proxy, seed = 7)

  private def bits(r: QueryTemplateIdentification.Result) =
    (r.nodes.map(n => (n.pAttrs, java.lang.Double.doubleToRawLongBits(n.score))), r.templatesEvaluated)

  private val seeds = Seq(0L, 5L, 11L)

  test("QTI over concurrent layers equals the sequential reference, node for node") {
    for (seed <- seeds; usePredictor <- Seq(true, false)) {
      val par = QueryTemplateIdentification.identify(attrs, mkCodec, mkEvaluator(MIProxy), budget, usePredictor, seed)
      val ref = ReferenceSearch.identify(attrs, mkCodec, mkEvaluator(MIProxy), budget, usePredictor, seed)
      assert(bits(par) == bits(ref), s"seed $seed, predictor $usePredictor")
      assert(par.nodes.size > attrs.size, "QTI should reach deeper layers")
    }
  }

  private val variants = Seq(
    "Full" -> FeatAugConfig(budget = budget),
    "NoQTI" -> FeatAugConfig(useQTI = false, budget = budget),
    "NoWU" -> FeatAugConfig(useWarmup = false, budget = budget),
    "LRpx" -> FeatAugConfig(proxy = LRProxy, budget = budget))

  test("FeatAug over concurrent pools equals the sequential reference (Full, NoQTI, NoWU, LR proxy)") {
    for (seed <- seeds; (name, base) <- variants) {
      val cfg = base.copy(seed = seed)
      val par = FeatAug.selectQueries(attrs, mkCodec, mkEvaluator(cfg.proxy), cfg)
      val (refQti, ref) = ReferenceSearch.selectQueries(attrs, mkCodec, mkEvaluator(cfg.proxy), cfg)
      assert(par == ref, s"$name, seed $seed")
      assert(par.queries.nonEmpty)
      refQti.foreach { qti =>
        val again = QueryTemplateIdentification.identify(attrs, mkCodec, mkEvaluator(cfg.proxy), budget, seed = seed)
        assert(bits(again) == bits(qti), s"$name QTI, seed $seed")
      }
    }
  }

  test("the Random baseline over concurrent pools equals the sequential reference") {
    for (seed <- seeds) {
      val par = FeatAug.selectQueriesRandom(attrs, mkCodec, mkEvaluator(MIProxy), budget, seed)
      val ref = ReferenceSearch.selectQueriesRandom(attrs, mkCodec, mkEvaluator(MIProxy), budget, seed)
      assert(par == ref, s"seed $seed")
      assert(par.templates.size > 1)
    }
  }
}
