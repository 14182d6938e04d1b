package repro.baselines

import repro.core.{QuerySpec, QueryTemplate}

/** The Featuretools baseline (Kanter & Veeramachaneni, DSAA'15) as used by
  * the paper: depth-1 Deep Feature Synthesis over one relevant table —
  * every `agg(a)` group-by query on the full foreign key, **no
  * predicates**. "FT" (no selector) keeps the first `k` in enumeration
  * order; the FT+Selector baselines select from the full set.
  */
object Featuretools {

  /** All candidate queries of the template, predicate-free. */
  def candidateSpecs(template: QueryTemplate): Vector[QuerySpec] =
    for {
      agg <- template.aggFuncs
      attr <- template.aggAttrs
    } yield QuerySpec(agg, attr, Vector.empty, template.keys)
}
