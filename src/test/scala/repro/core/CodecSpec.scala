package repro.core

import org.scalacheck.{Gen, Prop}
import repro.{PropSupport, SparkSpec}
import scala.util.Random

/** Query-vector codec: the Section V-A mapping between the query pool and
  * the discrete HPO space.
  */
class CodecSpec extends SparkSpec with MiniData with PropSupport {

  test("space layout: agg dims, 1 slot per categorical, 2 per numeric, key bits") {
    val dims = codec.space.dims
    // [aggFunc(5), aggAttr(2), cat(|vals|+1), t-lo(|cuts|+1), t-hi(|cuts|+1), key:uid(2)]
    assert(dims.size == 6)
    assert(dims(0).size == template.aggFuncs.size)
    assert(dims(1).size == template.aggAttrs.size)
    val catSize = domains("cat").asInstanceOf[CatDomain].values.size
    val numSize = domains("t").asInstanceOf[NumDomain].cuts.size
    assert(dims(2).size == catSize + 1)
    assert(dims(3).size == numSize + 1 && dims(4).size == numSize + 1)
    assert(dims(5).size == 2)
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
    val rnd = new Random(5)
    val gen = Gen.choose(0L, 100000L)
    check(Prop.forAll(gen) { seed =>
      val r = new Random(seed)
      val v0 = codec.space.randomPoint(r)
      val numSize = domains("t").asInstanceOf[NumDomain].cuts.size + 1
      val lo = v0(3); val hi = v0(4)
      val (cl, ch) = if (lo != 0 && hi != 0 && lo > hi) (hi, lo) else (lo, hi)
      val v = v0.updated(3, cl).updated(4, ch).updated(5, 1)
      codec.encode(codec.decode(v)) == v && numSize > 0
    }, minSuccessful = 100)
    assert(rnd != null)
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
    assert(codec.space.dims.map(_.size) == slots)
  }
}
