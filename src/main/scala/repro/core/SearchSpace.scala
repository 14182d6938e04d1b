package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.StringType
import repro.hpo.{Dim, ParamSpace}

/** The value domain of one predicate attribute, extracted from the relevant
  * table: distinct values for categorical (string) attributes, quantile cut
  * points for numeric/datetime attributes (the paper discretizes range
  * bounds to observed domain values; quantiles keep the dimension small and
  * data-adaptive).
  */
sealed trait AttrDomain { def name: String }
final case class CatDomain(name: String, values: Vector[String]) extends AttrDomain {
  require(values.nonEmpty, s"empty categorical domain for $name")
}
final case class NumDomain(name: String, cuts: Vector[Double]) extends AttrDomain {
  require(cuts.nonEmpty, s"empty numeric domain for $name")
}

object SearchSpace {

  /** Extract domains for `attrs` from the relevant table. Categorical =
    * StringType (top `maxCats` values by frequency, ties broken by value);
    * numeric/datetime-as-number = `numQuantiles` distinct quantile cuts.
    */
  def domains(relevant: DataFrame, attrs: Seq[String], maxCats: Int, numQuantiles: Int): Map[String, AttrDomain] = {
    attrs.map { a =>
      val field = relevant.schema.fields.find(_.name == a)
        .getOrElse(throw new IllegalArgumentException(s"attr $a not in relevant table"))
      val dom: AttrDomain = field.dataType match {
        case StringType =>
          val vals = relevant.groupBy(col(a)).count()
            .orderBy(desc("count"), asc(a))
            .limit(maxCats)
            .collect()
            .map(_.getString(0))
            .toVector
          CatDomain(a, vals)
        case _ =>
          val probs = (1 to numQuantiles).map(_.toDouble / (numQuantiles + 1)).toArray
          val cuts = relevant.stat.approxQuantile(a, probs, 0.01).distinct.sorted.toVector
          NumDomain(a, cuts)
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
  * bound); numeric slots with lo > hi are decoded with the bounds swapped
  * so every vector decodes to a valid query. A key-bit vector of all zeros
  * decodes to the full key set (GROUP BY needs at least one key).
  */
final class QueryVectorCodec(val template: QueryTemplate, val domains: Map[String, AttrDomain]) {
  template.predAttrs.foreach(a => require(domains.contains(a), s"no domain for predicate attr $a"))

  /** Ordered predicate slot descriptors: (attr, isLowBound-for-numeric). */
  private val predSlots: Vector[(String, AttrDomain, Int)] =
    template.predAttrs.flatMap { a =>
      domains(a) match {
        case d: CatDomain => Vector((a, d, 0))
        case d: NumDomain => Vector((a, d, 0), (a, d, 1))
      }
    }

  val space: ParamSpace = ParamSpace(
    Vector(
      Dim("aggFunc", template.aggFuncs.size),
      Dim("aggAttr", template.aggAttrs.size),
    ) ++ predSlots.map {
      case (a, d: CatDomain, _)     => Dim(s"pred:$a", d.values.size + 1)
      case (a, d: NumDomain, which) => Dim(s"pred:$a:${if (which == 0) "lo" else "hi"}", d.cuts.size + 1)
      case (a, d, w)                => throw new IllegalStateException(s"unreachable slot ($a, $d, $w)")
    } ++ template.keys.map(k => Dim(s"key:$k", 2))
  )

  def decode(v: Vector[Int]): QuerySpec = {
    require(space.contains(v), s"vector $v outside ${space.dims.map(_.size)}")
    val agg = template.aggFuncs(v(0))
    val aggAttr = template.aggAttrs(v(1))
    var i = 2
    val preds = template.predAttrs.map { a =>
      domains(a) match {
        case d: CatDomain =>
          val idx = v(i); i += 1
          Predicate(a, if (idx == 0) None else Some(d.values(idx - 1)), None, None)
        case d: NumDomain =>
          val loIdx = v(i); val hiIdx = v(i + 1); i += 2
          val lo0 = if (loIdx == 0) None else Some(d.cuts(loIdx - 1))
          val hi0 = if (hiIdx == 0) None else Some(d.cuts(hiIdx - 1))
          val (lo, hi) = (lo0, hi0) match {
            case (Some(l), Some(h)) if l > h => (Some(h), Some(l))
            case other                       => other
          }
          Predicate(a, None, lo, hi)
      }
    }
    val keyBits = template.keys.indices.map(j => v(i + j))
    val keys = template.keys.zip(keyBits).collect { case (k, 1) => k }.toVector
    QuerySpec(agg, aggAttr, preds, if (keys.isEmpty) template.keys else keys)
  }

  /** Inverse of decode for specs whose constants exist in the domains; used
    * by tests (decode∘encode = identity on canonical vectors).
    */
  def encode(q: QuerySpec): Vector[Int] = {
    val head = Vector(
      template.aggFuncs.indexOf(q.agg),
      template.aggAttrs.indexOf(q.aggAttr),
    )
    require(head.forall(_ >= 0), s"query $q not in template $template")
    val predByAttr = q.preds.map(p => p.attr -> p).toMap
    val mid = template.predAttrs.flatMap { a =>
      val p = predByAttr.getOrElse(a, Predicate(a, None, None, None))
      domains(a) match {
        case d: CatDomain => Vector(p.eqValue.map(v => d.values.indexOf(v) + 1).getOrElse(0))
        case d: NumDomain =>
          Vector(
            p.lo.map(v => d.cuts.indexOf(v) + 1).getOrElse(0),
            p.hi.map(v => d.cuts.indexOf(v) + 1).getOrElse(0),
          )
      }
    }
    val keyBits = template.keys.map(k => if (q.keys.contains(k)) 1 else 0)
    head ++ mid ++ keyBits
  }
}
