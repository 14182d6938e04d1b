package repro.core

import org.scalacheck.{Gen, Prop}
import repro.{PropSupport, SparkSpec}
import scala.util.Random

/** Query-vector codec: the Section V-A mapping between the query pool and
  * the discrete HPO space.
  */
class CodecSpec extends SparkSpec with MiniData with PropSupport {

  /** The inverse of `codec.decode` for specs whose constants exist in the
    * domains (decode∘encode = identity on canonical vectors).
    */
  private def encode(q: QuerySpec): Vector[Int] = {
    val head = Vector(
      template.aggFuncs.indexOf(q.agg),
      template.aggAttrs.indexOf(q.aggAttr),
    )
    require(head.forall(_ >= 0), s"query $q not in template ${template}")
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

  test("space layout: agg dims, 1 slot per categorical, 2 per numeric, key bits") {
    val sizes = codec.space.sizes
    // [aggFunc(5), aggAttr(2), cat(|vals|+1), t-lo(|cuts|+1), t-hi(|cuts|+1), key:uid(2)]
    assert(sizes.size == 6)
    assert(sizes(0) == template.aggFuncs.size)
    assert(sizes(1) == template.aggAttrs.size)
    val catSize = domains("cat").asInstanceOf[CatDomain].values.size
    val numSize = domains("t").asInstanceOf[NumDomain].cuts.size
    assert(sizes(2) == catSize + 1)
    assert(sizes(3) == numSize + 1 && sizes(4) == numSize + 1)
    assert(sizes(5) == 2)
  }

  test("domains: categorical values come from the table, cuts are sorted distinct") {
    val cat = domains("cat").asInstanceOf[CatDomain]
    assert(cat.values.toSet.subsetOf(Set("A", "B", "C", "D")))
    val num = domains("t").asInstanceOf[NumDomain]
    assert(num.cuts == num.cuts.sorted && num.cuts.distinct == num.cuts)
  }

  test("domains reject unknown attributes") {
    intercept[IllegalArgumentException](SearchSpace.domains(relevant, Seq("nope"), maxCats = 6, numQuantiles = 5))
  }

  test("categorical domains never offer NULL, so every decoded query renders") {
    val s = spark
    import s.implicits._
    // NULL is the most frequent value of `cat`.
    val withNull = Seq[(Long, Option[String], Double)](
      (1L, None, 1.0), (1L, None, 2.0), (2L, None, 3.0), (2L, Some("B"), 4.0), (3L, Some("A"), 5.0))
      .toDF("uid", "cat", "amt")
    val dom = SearchSpace.domains(withNull, Seq("cat"), maxCats = 6, numQuantiles = 5)
    assert(dom("cat").asInstanceOf[CatDomain].values == Vector("A", "B"))
    val c = new QueryVectorCodec(QueryTemplate(MiniData.basic, Vector("amt"), Vector("cat"), Vector("uid")), dom)
    val points = c.space.sizes.foldLeft(Vector(Vector.empty[Int])) { (vs, n) =>
      for (v <- vs; i <- 0 until n) yield v :+ i
    }
    assert(points.size == 5 * 1 * 3 * 2)
    points.foreach(v => assert(executor.duckSql(c.decode(v), "r").startsWith("SELECT uid, ")))
    val allNull = intercept[IllegalArgumentException](
      SearchSpace.domains(withNull.where($"cat".isNull), Seq("cat"), maxCats = 6, numQuantiles = 5))
    assert(allNull.getMessage.contains("empty categorical domain"))
  }

  test("codec rejects predicate attrs without domains") {
    intercept[IllegalArgumentException](
      new QueryVectorCodec(template.copy(predAttrs = Vector("missing")), domains))
  }

  test("index 0 decodes to an unconstrained predicate (None)") {
    val q = codec.decode(Vector(0, 0, 0, 0, 0, 1))
    assert(q.preds.forall(_.isEmpty))
  }

  test("categorical index decodes to the corresponding equality value") {
    val cat = domains("cat").asInstanceOf[CatDomain]
    val q = codec.decode(Vector(1, 0, 2, 0, 0, 1))
    assert(q.preds.head.eqValue.contains(cat.values(1)))
  }

  test("numeric lo > hi decodes with bounds swapped (always valid)") {
    val num = domains("t").asInstanceOf[NumDomain]
    val loIdx = num.cuts.size // highest cut as 'lo'
    val q = codec.decode(Vector(0, 0, 0, loIdx, 1, 1))
    val p = q.preds(1)
    assert(p.lo.get <= p.hi.get)
    assert(p.lo.contains(num.cuts.head) && p.hi.contains(num.cuts.last))
  }

  test("all-zero key bits decode to the full key set") {
    val q = codec.decode(Vector(0, 0, 0, 0, 0, 0))
    assert(q.keys == Vector("uid"))
  }

  test("decode rejects out-of-space vectors") {
    intercept[IllegalArgumentException](codec.decode(Vector(99, 0, 0, 0, 0, 0)))
  }

  test("encode inverts decode on canonical vectors (property)") {
    // Canonical = no lo>hi swap and at least one key bit set; decode∘encode
    // must then reproduce the vector exactly.
    val gen = Gen.choose(0L, 100000L)
    check(Prop.forAll(gen) { seed =>
      val r = new Random(seed)
      val v0 = codec.space.randomPoint(r)
      val lo = v0(3); val hi = v0(4)
      val (cl, ch) = if (lo != 0 && hi != 0 && lo > hi) (hi, lo) else (lo, hi)
      val v = v0.updated(3, cl).updated(4, ch).updated(5, 1)
      encode(codec.decode(v)) == v
    }, minSuccessful = 100)
  }

  test("every random vector decodes to a valid QuerySpec (property)") {
    check(Prop.forAll(Gen.choose(0L, 100000L)) { seed =>
      val r = new Random(seed)
      val q = codec.decode(codec.space.randomPoint(r))
      template.aggFuncs.contains(q.agg) &&
        template.aggAttrs.contains(q.aggAttr) &&
        q.keys.nonEmpty &&
        q.preds.forall(p => (p.lo, p.hi) match {
          case (Some(l), Some(h)) => l <= h
          case _                  => true
        })
    }, minSuccessful = 100)
  }

  test("space cardinality is the product promised by Definition 2's pool") {
    val catSize = domains("cat").asInstanceOf[CatDomain].values.size + 1
    val numSize = domains("t").asInstanceOf[NumDomain].cuts.size + 1
    // Definition 2's slots: F, A, the categorical value, both numeric bounds, the key bit.
    val slots = Vector(5, 2, catSize, numSize, numSize, 2)
    assert(codec.space.sizes == slots)
  }
}
