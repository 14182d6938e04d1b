package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Pure-model tests for templates, predicates and query specs. */
class QueryModelSpec extends AnyFunSuite {

  private val t = QueryTemplate(MiniData.basic, Vector("amt"), Vector("cat", "t"), Vector("uid"))

  test("template validation rejects empty function/attr/key sets") {
    intercept[IllegalArgumentException](QueryTemplate(Vector.empty, Vector("a"), Vector.empty, Vector("k")))
    intercept[IllegalArgumentException](QueryTemplate(MiniData.basic, Vector.empty, Vector.empty, Vector("k")))
    intercept[IllegalArgumentException](QueryTemplate(MiniData.basic, Vector("a"), Vector.empty, Vector.empty))
  }

  test("template validation rejects duplicate predicate attributes") {
    intercept[IllegalArgumentException](
      QueryTemplate(MiniData.basic, Vector("a"), Vector("p", "p"), Vector("k")))
  }

  test("one-hot encoding marks exactly the P attributes") {
    val enc = QueryTemplate.encode(Vector("cat", "t", "z"), t.predAttrs)
    assert(enc.toSeq == Seq(1.0, 1.0, 0.0))
  }

  test("predicate rejects equality combined with a range") {
    intercept[IllegalArgumentException](Predicate("p", Some("v"), Some(1.0), None))
  }

  test("predicate rejects lo > hi") {
    intercept[IllegalArgumentException](Predicate("p", None, Some(2.0), Some(1.0)))
  }

  test("predicate isEmpty only when fully unconstrained") {
    assert(Predicate("p", None, None, None).isEmpty)
    assert(!Predicate("p", Some("v"), None, None).isEmpty)
    assert(!Predicate("p", None, Some(1.0), None).isEmpty)
  }

  test("a query rejects an unconstrained predicate") {
    val q1 = QuerySpec(AggFunc.Sum, "amt", Vector(Predicate("cat", Some("A"), None, None)), Vector("uid"))
    val q2 = QuerySpec(AggFunc.Sum, "amt", Vector(Predicate("cat", Some("B"), None, None)), Vector("uid"))
    assert(q1.cacheKey != q2.cacheKey)
    intercept[IllegalArgumentException](QuerySpec(AggFunc.Sum, "amt",
      Vector(Predicate("cat", Some("A"), None, None), Predicate("t", None, None, None)), Vector("uid")))
  }

  test("cacheKey distinguishes aggregation function, attribute and keys") {
    val base = QuerySpec(AggFunc.Sum, "amt", Vector.empty, Vector("uid"))
    assert(base.cacheKey != base.copy(agg = AggFunc.Avg).cacheKey)
    assert(base.cacheKey != base.copy(aggAttr = "t").cacheKey)
    assert(base.cacheKey != base.copy(keys = Vector("uid", "mid")).cacheKey)
  }

  test("query spec requires at least one key") {
    intercept[IllegalArgumentException](QuerySpec(AggFunc.Sum, "a", Vector.empty, Vector.empty))
  }
}
