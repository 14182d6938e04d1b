package repro.exp

import repro.baselines._
import repro.core.{FeatAug, FeatAugConfig}
import repro.ml.ModelKind
import repro.proxy.MIProxy

/** Every compared method as a (Prepared, ModelKind) → test-metric runner.
  * All methods augment the same number of features (`numFeatures`, paper:
  * 40) and are scored by [[Prepared.finalMetric]] on the held-out test
  * split with the full-budget downstream model.
  */
object Methods {

  /** Plain Featuretools: first k candidates in enumeration order. */
  def runFT(p: Prepared, mk: ModelKind): Double =
    p.finalMetric(mk, p.ftCandidates.take(p.budget.numFeatures))

  /** Featuretools + a selector; None when the selector doesn't apply to
    * the task (Chi2/Gini on regression — the paper's blank cells).
    */
  def runFTSelector(p: Prepared, mk: ModelKind, sel: FeatureSelectors.Selector): Option[Double] = {
    if (!FeatureSelectors.supports(sel, p.td.task)) None
    else {
      val idx = FeatureSelectors.select(
        sel, p.baseX, p.ftCandidates, p.y, p.td.task, mk, p.split, p.budget.numFeatures)
      Some(p.finalMetric(mk, idx.map(p.ftCandidates)))
    }
  }

  /** The Random baseline: random templates + random pool search. */
  def runRandom(p: Prepared, mk: ModelKind, seed: Long = 1L): Double = {
    val ev = p.evaluator(mk, MIProxy, seed)
    val res = FeatAug.selectQueriesRandom(p.td.predAttrs, p.codec, ev, p.budget, seed)
    p.finalMetric(mk, res.queries.map(p.feature))
  }

  /** FeatAug with the given configuration; returns (metric, run trace). */
  def runFeatAug(p: Prepared, mk: ModelKind, config: FeatAugConfig): (Double, FeatAug.RunResult) = {
    val ev = p.evaluator(mk, config.proxy, config.seed)
    val res = FeatAug.selectQueries(p.td.predAttrs, p.codec, ev, config)
    (p.finalMetric(mk, res.queries.map(p.feature)), res)
  }

  /** ARDA (one-to-one scenario only). */
  def runARDA(p: Prepared, mk: ModelKind, seed: Long = 3L): Double = {
    val idx = ARDA.select(p.baseX, p.directCandidates, p.y, p.td.task, p.split,
      p.budget.numFeatures, seed = seed)
    p.finalMetric(mk, idx.map(p.directCandidates))
  }

  /** AutoFeature with the MAB or DQN agent (one-to-one scenario only). */
  def runAutoFeature(p: Prepared, mk: ModelKind, agent: AutoFeature.Agent, seed: Long = 4L): Double = {
    val idx = AutoFeature.select(agent, p.baseX, p.directCandidates, p.y, p.td.task, mk,
      p.split, p.budget.numFeatures, seed = seed)
    p.finalMetric(mk, idx.map(p.directCandidates))
  }
}
