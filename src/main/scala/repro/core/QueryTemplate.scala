package repro.core

/** A query template T = (F, A, P, K) per Definition 1: aggregation function
  * set, aggregation attribute set, the fixed attribute combination forming
  * the WHERE clause, and the foreign-key attributes.
  */
final case class QueryTemplate(
    aggFuncs: Vector[AggFunc],
    aggAttrs: Vector[String],
    predAttrs: Vector[String],
    keys: Vector[String],
) {
  require(aggFuncs.nonEmpty, "template needs at least one aggregation function")
  require(aggAttrs.nonEmpty, "template needs at least one aggregation attribute")
  require(keys.nonEmpty, "template needs at least one foreign-key attribute")
  require(predAttrs.distinct == predAttrs, s"duplicate predicate attrs in $predAttrs")

  /** Every `agg(a)` query on the full key set without predicates, F-major
    * then A: the paper's Featuretools baseline (Kanter & Veeramachaneni,
    * DSAA'15), depth-1 Deep Feature Synthesis over one relevant table.
    */
  def predicateFreeQueries: Vector[QuerySpec] =
    for (agg <- aggFuncs; attr <- aggAttrs) yield QuerySpec(agg, attr, Vector.empty, keys)
}

object QueryTemplate {

  /** One-hot encoding of the attribute combination `p` over the ordered
    * universe `attrs`: QTI's predictor input (Opt. 2).
    */
  def encode(attrs: Vector[String], p: Vector[String]): Array[Double] =
    attrs.map(a => if (p.contains(a)) 1.0 else 0.0).toArray
}

/** One conjunct of the WHERE clause: an equality predicate on a categorical
  * attribute or a (possibly one-sided) range predicate on a numeric
  * attribute (Definition 2).
  */
final case class Predicate(
    attr: String,
    eqValue: Option[String],
    lo: Option[Double],
    hi: Option[Double],
) {
  require(eqValue.isEmpty || (lo.isEmpty && hi.isEmpty), "equality and range are exclusive")
  require((lo, hi) match { case (Some(l), Some(h)) => l <= h; case _ => true }, "lo > hi")
  def isEmpty: Boolean = eqValue.isEmpty && lo.isEmpty && hi.isEmpty
}

/** A fully instantiated predicate-aware query: one point of the query pool.
  * `preds` are the conjuncts of its WHERE clause, so each one constrains; an
  * attribute the query does not filter on has no predicate.
  */
final case class QuerySpec(
    agg: AggFunc,
    aggAttr: String,
    preds: Vector[Predicate],
    keys: Vector[String],
) {
  require(keys.nonEmpty, "query needs group-by keys")
  require(!preds.exists(_.isEmpty), s"unconstrained predicate in $preds")

  /** Stable memoization key (also the feature column name basis). */
  def cacheKey: String = {
    val p = preds.map { pr =>
      s"${pr.attr}:${pr.eqValue.getOrElse("")}:${pr.lo.getOrElse("")}:${pr.hi.getOrElse("")}"
    }.mkString("&")
    s"${agg.name}(${aggAttr})|$p|${keys.mkString("+")}"
  }
}
