package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Pure-model tests for templates, predicates and query specs. */
class QueryModelSpec extends AnyFunSuite {

  private val t = QueryTemplate(AggFunc.basic, Vector("amt"), Vector("cat", "t"), Vector("uid"))

  test("template validation rejects empty function/attr/key sets") {
    intercept[IllegalArgumentException](QueryTemplate(Vector.empty, Vector("a"), Vector.empty, Vector("k")))
    intercept[IllegalArgumentException](QueryTemplate(AggFunc.basic, Vector.empty, Vector.empty, Vector("k")))
    intercept[IllegalArgumentException](QueryTemplate(AggFunc.basic, Vector("a"), Vector.empty, Vector.empty))
  }

  test("template validation rejects duplicate predicate attributes") {
    intercept[IllegalArgumentException](
      QueryTemplate(AggFunc.basic, Vector("a"), Vector("p", "p"), Vector("k")))
  }

  test("pKey is order-insensitive (identifies the attribute set)") {
    val a = t.copy(predAttrs = Vector("x", "y"))
    val b = t.copy(predAttrs = Vector("y", "x"))
    assert(a.pKey == b.pKey)
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

  test("cacheKey distinguishes different queries and ignores empty predicates") {
    val q1 = QuerySpec(AggFunc.Sum, "amt", Vector(Predicate("cat", Some("A"), None, None)), Vector("uid"))
    val q2 = QuerySpec(AggFunc.Sum, "amt", Vector(Predicate("cat", Some("B"), None, None)), Vector("uid"))
    val q3 = QuerySpec(AggFunc.Sum, "amt",
      Vector(Predicate("cat", Some("A"), None, None), Predicate("t", None, None, None)), Vector("uid"))
    assert(q1.cacheKey != q2.cacheKey)
    assert(q1.cacheKey == q3.cacheKey)
  }

  test("cacheKey distinguishes aggregation function, attribute and keys") {
    val base = QuerySpec(AggFunc.Sum, "amt", Vector.empty, Vector("uid"))
    assert(base.cacheKey != base.copy(agg = AggFunc.Avg).cacheKey)
    assert(base.cacheKey != base.copy(aggAttr = "t").cacheKey)
    assert(base.cacheKey != base.copy(keys = Vector("uid", "mid")).cacheKey)
  }

  test("describe renders a complete predicate-aware SQL string") {
    val q = QuerySpec(AggFunc.Avg, "amt",
      Vector(Predicate("cat", Some("A"), None, None), Predicate("t", None, Some(1.0), Some(5.0))),
      Vector("uid"))
    val sql = q.describe("logs")
    assert(sql == "SELECT uid, AVG(amt) AS feature FROM logs WHERE cat = 'A' AND t >= 1.0 AND t <= 5.0 GROUP BY uid")
  }

  test("describe omits WHERE when all predicates are empty") {
    val q = QuerySpec(AggFunc.Count, "amt", Vector(Predicate("cat", None, None, None)), Vector("uid"))
    assert(!q.describe("logs").contains("WHERE"))
  }

  test("query spec requires at least one key") {
    intercept[IllegalArgumentException](QuerySpec(AggFunc.Sum, "a", Vector.empty, Vector.empty))
  }
}
