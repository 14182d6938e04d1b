package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.StringType
import repro.hpo.ParamSpace

/** The value domain of one predicate attribute, extracted from the relevant
  * table: distinct values for categorical (string) attributes, quantile cut
  * points for numeric/datetime attributes (the paper discretizes range
  * bounds to observed domain values; quantiles keep the dimension small and
  * data-adaptive).
  */
sealed trait AttrDomain
final case class CatDomain(values: Vector[String]) extends AttrDomain {
  require(values.nonEmpty, "empty categorical domain")
}
final case class NumDomain(cuts: Vector[Double]) extends AttrDomain {
  require(cuts.nonEmpty, "empty numeric domain")
}

object SearchSpace {

  /** Extract domains for `attrs` from the relevant table. Categorical =
    * StringType (top `maxCats` non-NULL values by frequency, ties broken by
    * value; `a = NULL` selects no row); numeric/datetime-as-number =
    * `numQuantiles` distinct quantile cuts of the non-NULL values.
    */
  def domains(relevant: DataFrame, attrs: Seq[String], maxCats: Int, numQuantiles: Int): Map[String, AttrDomain] = {
    attrs.map { a =>
      val field = relevant.schema.fields.find(_.name == a)
        .getOrElse(throw new IllegalArgumentException(s"attr $a not in relevant table"))
      val dom: AttrDomain = field.dataType match {
        case StringType =>
          val vals = relevant.where(col(a).isNotNull).groupBy(col(a)).count()
            .orderBy(desc("count"), asc(a))
            .limit(maxCats)
            .collect()
            .map(_.getString(0))
            .toVector
          CatDomain(vals)
        case _ =>
          val probs = (1 to numQuantiles).map(_.toDouble / (numQuantiles + 1)).toArray
          val cuts = relevant.stat.approxQuantile(a, probs, 0.01).distinct.sorted.toVector
          NumDomain(cuts)
      }
      a -> dom
    }.toMap
  }
}

/** Bidirectional mapping between the query pool of a template and the
  * discrete HPO vector space (Section V-A):
  *
  *   [aggFunc, aggAttr, (1 slot per categorical P-attr | 2 slots per
  *    numeric P-attr), |K| key-selection bits]
  *
  * Index 0 of every predicate slot means None (no constraint on that
  * bound), and an attribute with no bound gets no predicate, so a vector
  * whose slots for some attributes are all 0 decodes to the query of the
  * template without them. Numeric slots with lo > hi are decoded with the
  * bounds swapped so every vector decodes to a valid query. A key-bit
  * vector of all zeros decodes to the full key set (GROUP BY needs a key).
  */
final class QueryVectorCodec(val template: QueryTemplate, val domains: Map[String, AttrDomain]) {
  template.predAttrs.foreach(a => require(domains.contains(a), s"no domain for predicate attr $a"))

  val space: ParamSpace = ParamSpace(
    Vector(template.aggFuncs.size, template.aggAttrs.size) ++
      template.predAttrs.flatMap(a => domains(a) match {
        case d: CatDomain => Vector(d.values.size + 1)
        case d: NumDomain => Vector(d.cuts.size + 1, d.cuts.size + 1) // lo, hi
      }) ++
      template.keys.map(_ => 2))

  def decode(v: Vector[Int]): QuerySpec = {
    require(space.contains(v), s"vector $v outside ${space.sizes}")
    val agg = template.aggFuncs(v(0))
    val aggAttr = template.aggAttrs(v(1))
    var i = 2
    val preds = template.predAttrs.flatMap { a =>
      domains(a) match {
        case d: CatDomain =>
          val idx = v(i); i += 1
          Option.when(idx > 0)(Predicate(a, Some(d.values(idx - 1)), None, None))
        case d: NumDomain =>
          def cut(j: Int) = Option.when(j > 0)(d.cuts(j - 1))
          val (lo0, hi0) = (cut(v(i)), cut(v(i + 1))); i += 2
          val (lo, hi) = if (lo0.zip(hi0).exists { case (l, h) => l > h }) (hi0, lo0) else (lo0, hi0)
          Option.when(lo.nonEmpty || hi.nonEmpty)(Predicate(a, None, lo, hi))
      }
    }
    val keyBits = template.keys.indices.map(j => v(i + j))
    val keys = template.keys.zip(keyBits).collect { case (k, 1) => k }.toVector
    QuerySpec(agg, aggAttr, preds, if (keys.isEmpty) template.keys else keys)
  }
}
