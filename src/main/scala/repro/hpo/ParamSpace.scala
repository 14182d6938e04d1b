package repro.hpo

import scala.util.Random

/** A discrete search space: dimension `i` is the categorical index domain
  * `0 until sizes(i)`.
  *
  * FeatAug maps query vectors (Section V-A) to this space: aggregation
  * function index, aggregation attribute index, one slot per categorical
  * predicate attribute (domain values + None), two slots per numeric
  * predicate attribute (quantile cut points + None for each bound), and one
  * binary slot per foreign-key attribute.
  */
final case class ParamSpace(sizes: Vector[Int]) {
  require(sizes.nonEmpty, "empty search space")
  require(sizes.forall(_ >= 1), "every dimension needs >= 1 value")

  def randomPoint(rnd: Random): Vector[Int] = sizes.map(n => rnd.nextInt(n))

  def contains(p: Vector[Int]): Boolean =
    p.length == sizes.length && p.indices.forall(i => p(i) >= 0 && p(i) < sizes(i))
}

/** The trace of a search: every (point, loss) evaluated plus the best. */
final case class SearchResult(history: Vector[(Vector[Int], Double)]) {
  require(history.nonEmpty, "empty search history")
  def best: (Vector[Int], Double) = history.minBy(_._2)
  /** Distinct points ranked by loss ascending (first occurrence wins). */
  def ranked: Vector[(Vector[Int], Double)] =
    history.groupBy(_._1).map { case (p, obs) => (p, obs.map(_._2).min) }.toVector.sortBy(_._2)
}
