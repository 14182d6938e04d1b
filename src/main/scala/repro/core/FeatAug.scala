package repro.core

import repro.Parallel
import repro.proxy.{MIProxy, ProxyKind}

/** End-to-end FeatAug configuration (ablation flags map to paper Table VII:
  * `useQTI = false` is "NoQTI", `useWarmup = false` is "NoWU").
  */
final case class FeatAugConfig(
    useQTI: Boolean = true,
    useWarmup: Boolean = true,
    proxy: ProxyKind = MIProxy,
    budget: SearchBudget,
    seed: Long,
)

/** The FeatAug framework (Figure 2): Query Template Identification selects
  * n promising attribute combinations; SQL Query Generation searches each
  * template's pool; the union of selected queries augments the training
  * table.
  */
object FeatAug {

  /** The selected queries plus search-cost accounting for one run. */
  final case class RunResult(
      queries: Vector[QuerySpec],
      templates: Vector[Vector[String]],
      queryExecutions: Int,
      realEvaluations: Int,
  )

  /** Select up to `budget.nTemplates * budget.queriesPerTemplate` queries.
    *
    * `attrs` is the user-provided candidate set for WHERE-clause
    * attributes; without QTI the single template P = attrs is used (the
    * paper's NoQTI ablation).
    */
  def selectQueries(
      attrs: Vector[String],
      mkCodec: Vector[String] => QueryVectorCodec,
      evaluator: Evaluator,
      config: FeatAugConfig,
  ): RunResult = {
    // Without QTI the single user template gets the SAME total search
    // budget as the nTemplates pools of the full pipeline (the paper's
    // fair-comparison principle for the NoWU/NoQTI ablations).
    val budget =
      if (config.useQTI) config.budget
      else config.budget.copy(
        warmupIters = config.budget.warmupIters * config.budget.nTemplates,
        warmupTopK = config.budget.warmupTopK * config.budget.nTemplates,
        genIters = config.budget.genIters * config.budget.nTemplates)
    val templates: Vector[Vector[String]] =
      if (config.useQTI) {
        QueryTemplateIdentification
          .identify(attrs, mkCodec, evaluator, budget, usePredictor = true, seed = config.seed)
          .topN(budget.nTemplates)
      } else Vector(attrs)

    val perPool = if (config.useQTI) budget.queriesPerTemplate else budget.numFeatures
    select(templates, evaluator, perPool) { (p, i) =>
      SqlQueryGeneration.generate(
        mkCodec(p), evaluator, budget, useWarmup = config.useWarmup, seed = config.seed + 7919L * (i + 1))
    }
  }

  /** The Random baseline: random templates, random pool search with the
    * same per-pool real-evaluation budget.
    */
  def selectQueriesRandom(
      attrs: Vector[String],
      mkCodec: Vector[String] => QueryVectorCodec,
      evaluator: Evaluator,
      budget: SearchBudget,
      seed: Long,
  ): RunResult = {
    val rnd = new scala.util.Random(seed)
    val templates = Vector.fill(budget.nTemplates) {
      val size = 1 + rnd.nextInt(math.min(attrs.size, budget.beamDepth))
      rnd.shuffle(attrs).take(size).sortBy(attrs.indexOf)
    }.distinct // duplicates waste a template slot, as in random choice
    select(templates, evaluator, budget.queriesPerTemplate) { (p, i) =>
      SqlQueryGeneration.generateRandom(mkCodec(p), evaluator, budget, seed + 104729L * (i + 1))
    }
  }

  /** Searches every template's pool (the `i`-th with `search(p, i)`) and
    * takes the top `perPool` queries of each, skipping queries already
    * chosen. Pools are independent given their seeds, so they run
    * concurrently; their rankings are merged in template order.
    */
  private def select(templates: Vector[Vector[String]], evaluator: Evaluator, perPool: Int)(
      search: (Vector[String], Int) => Vector[(QuerySpec, Double)]): RunResult = {
    val rankings = Parallel.map(templates.zipWithIndex) { case (p, i) => search(p, i) }
    val chosen = scala.collection.mutable.LinkedHashMap.empty[String, QuerySpec]
    rankings.foreach { ranked =>
      ranked.iterator
        .filterNot { case (q, _) => chosen.contains(q.cacheKey) }
        .take(perPool)
        .foreach { case (q, _) => chosen.update(q.cacheKey, q) }
    }
    RunResult(chosen.values.toVector, templates, evaluator.queryExecutions, evaluator.realEvaluations)
  }
}
