package featbench

import scala.collection.mutable
import repro.core._
import repro.exp.Prepared

/** `FeatAug.selectQueries` for the Full configuration, step by step, so the
  * traced run can time query template identification and SQL query
  * generation from outside. It passes the same arguments and seeds as
  * `selectQueries`; the caller asserts that it selects the same queries.
  */
object TracedSearch {

  /** `objectiveCalls` counts every call the searches make into the
    * evaluator: TPE proposals plus the warm-up top-k hand-offs.
    */
  final case class Result(
      queries: Vector[QuerySpec],
      templates: Vector[Vector[String]],
      qtiNanos: Long,
      sqlgenNanos: Long,
      objectiveCalls: Int,
  )

  def select(p: Prepared, evaluator: Evaluator, config: FeatAugConfig): Result = {
    require(config.useQTI && config.useWarmup, "the traced search mirrors the Full configuration only")
    val budget = config.budget
    val q0 = System.nanoTime()
    val qti = QueryTemplateIdentification.identify(
      p.td.predAttrs, p.codec, evaluator, budget, usePredictor = true, seed = config.seed)
    val templates = qti.topN(budget.nTemplates)
    val qtiNanos = System.nanoTime() - q0

    var sqlgenNanos = 0L
    val chosen = mutable.LinkedHashMap.empty[String, QuerySpec]
    templates.zipWithIndex.foreach { case (t, i) =>
      val g0 = System.nanoTime()
      val ranked = SqlQueryGeneration.generate(
        p.codec(t), evaluator, budget, useWarmup = true, seed = config.seed + 7919L * (i + 1))
      sqlgenNanos += System.nanoTime() - g0
      ranked.iterator
        .filterNot { case (q, _) => chosen.contains(q.cacheKey) }
        .take(budget.queriesPerTemplate)
        .foreach { case (q, _) => chosen.update(q.cacheKey, q) }
    }
    val calls = qti.templatesEvaluated * budget.qtiProxyIters +
      templates.size * (budget.warmupIters + budget.warmupTopK + budget.genIters)
    Result(chosen.values.toVector, templates, qtiNanos, sqlgenNanos, calls)
  }
}
