package repro.hpo

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport
import scala.util.Random

class TPESpec extends AnyFunSuite with PropSupport {

  private val space = ParamSpace(Vector(10, 10, 5))

  /** Loss with a unique optimum at (7, 2, 3). */
  private def loss(p: Vector[Int]): Double =
    math.abs(p(0) - 7) + math.abs(p(1) - 2) + math.abs(p(2) - 3)

  test("ParamSpace validates its dimensions") {
    intercept[IllegalArgumentException](ParamSpace(Vector.empty))
    intercept[IllegalArgumentException](ParamSpace(Vector(0)))
  }

  test("random points are always inside the space") {
    val rnd = new Random(0)
    (1 to 100).foreach(_ => assert(space.contains(space.randomPoint(rnd))))
  }

  test("contains rejects wrong arity and out-of-range values") {
    assert(!space.contains(Vector(1, 2)))
    assert(!space.contains(Vector(10, 0, 0)))
    assert(!space.contains(Vector(-1, 0, 0)))
  }

  test("SearchResult.best returns the minimum-loss observation") {
    val r = SearchResult(Vector((Vector(1), 3.0), (Vector(2), 1.0), (Vector(3), 2.0)))
    assert(r.best == (Vector(2), 1.0))
  }

  test("SearchResult.ranked deduplicates points keeping the best loss") {
    val r = SearchResult(Vector((Vector(1), 3.0), (Vector(1), 1.0), (Vector(2), 2.0)))
    assert(r.ranked.map(_._1) == Vector(Vector(1), Vector(2)))
    assert(r.ranked.head._2 == 1.0)
  }

  test("TPE finds the optimum of a smooth discrete objective") {
    val res = new TPE(space, seed = 1).minimize(loss, iterations = 80)
    assert(res.best._2 <= 2.0, s"best ${res.best}")
  }

  test("TPE beats random search on average over seeds") {
    val seeds = 1L to 8L
    val tpe = seeds.map(s => new TPE(space, s).minimize(loss, 50).best._2).sum
    val rs = seeds.map(s => new RandomSearch(space, s).minimize(loss, 50).best._2).sum
    assert(tpe <= rs, s"TPE total $tpe vs random $rs")
  }

  test("TPE evaluates exactly `iterations` points") {
    assert(new TPE(space, 2).minimize(loss, 17).history.size == 17)
  }

  test("TPE is deterministic in seed") {
    val a = new TPE(space, 5).minimize(loss, 30).history
    val b = new TPE(space, 5).minimize(loss, 30).history
    assert(a == b)
  }

  test("warm-start observations steer the search toward the good region") {
    // Warm start near the optimum with good losses; with the 5 startup draws exceeded
    // the very first suggestion should be informed (not uniform).
    val warm = Vector((Vector(7, 2, 3), 0.0), (Vector(6, 2, 3), 1.0),
      (Vector(7, 3, 3), 1.0), (Vector(8, 2, 3), 1.0), (Vector(7, 2, 2), 1.0))
    val res = new TPE(space, seed = 3).minimize(loss, iterations = 10, warmStart = warm)
    val found = SearchResult(res.history.drop(warm.size)).best
    assert(found._2 <= 3.0, s"best $found")
  }

  test("warm-start points outside the space are rejected") {
    intercept[IllegalArgumentException](
      new TPE(space, 1).minimize(loss, 1, warmStart = Vector((Vector(99, 0, 0), 1.0))))
  }

  test("history is the warm start, then `iterations` new points") {
    val warm = Vector((Vector(1, 1, 1), loss(Vector(1, 1, 1))), (Vector(7, 2, 3), 0.0))
    val res = new TPE(space, 1).minimize(loss, 5, warmStart = warm)
    assert(res.history.size == 7)
    assert(res.history.take(2) == warm)
    assert(res.best == (Vector(7, 2, 3), 0.0))
  }

  test("suggest always returns a valid point") {
    val tpe = new TPE(space, 4)
    val rnd = new Random(4)
    val hist = Vector.fill(20) { val p = space.randomPoint(rnd); (p, loss(p)) }
    (1 to 50).foreach(_ => assert(space.contains(tpe.suggest(hist, rnd))))
  }

  test("minimize requires at least one iteration") {
    intercept[IllegalArgumentException](new TPE(space, 1).minimize(loss, 0))
    intercept[IllegalArgumentException](new RandomSearch(space, 1).minimize(loss, 0))
  }

  test("random search is deterministic and evaluates `iterations` points") {
    val a = new RandomSearch(space, 6).minimize(loss, 25)
    val b = new RandomSearch(space, 6).minimize(loss, 25)
    assert(a.history == b.history && a.history.size == 25)
  }

  test("property: TPE best loss never exceeds any observed loss") {
    check(Prop.forAll(Gen.choose(1L, 1000L)) { seed =>
      val res = new TPE(space, seed).minimize(loss, 20)
      res.history.forall(_._2 >= res.best._2)
    }, minSuccessful = 20)
  }

  test("works on a single-dimension space") {
    val s1 = ParamSpace(Vector(6))
    val res = new TPE(s1, 1).minimize(p => math.abs(p(0) - 4).toDouble, 20)
    assert(res.best._2 == 0.0)
  }
}
