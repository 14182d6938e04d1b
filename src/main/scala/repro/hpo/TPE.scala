package repro.hpo

import scala.collection.mutable
import scala.util.Random

/** Tree-structured Parzen Estimator over discrete dimensions, from scratch
  * (the paper builds on Hyperopt's TPE; no Python stack is available here).
  *
  * Observations are split at the loss quantile [[TPE.Gamma]] into a "good"
  * and a "bad" set (Section V-B). Each dimension gets a smoothed categorical
  * Parzen estimator per set; candidates are sampled from the good
  * distribution and ranked by the expected-improvement surrogate
  * sum(log pGood - log pBad). `warmStart` observations seed the surrogate,
  * implementing the paper's warm-up strategy (Section V-C): the first
  * TPE round on the low-cost proxy produces top-k queries whose real
  * evaluations become the second round's initial observations.
  */
final class TPE(space: ParamSpace, seed: Long = 0L) {
  import TPE._

  /** Minimize `objective` for `iterations` evaluations; `warmStart` points
    * count as prior observations but are not re-evaluated.
    */
  def minimize(objective: Vector[Int] => Double, iterations: Int,
               warmStart: Seq[(Vector[Int], Double)] = Nil): SearchResult = {
    require(iterations >= 1, "need at least one iteration")
    warmStart.foreach { case (p, _) => require(space.contains(p), s"warm-start point $p outside space") }
    val rnd = new Random(seed)
    val history = mutable.ArrayBuffer[(Vector[Int], Double)](warmStart: _*)
    var it = 0
    while (it < iterations) {
      val point =
        if (history.size < NStartup) space.randomPoint(rnd)
        else suggest(history.toVector, rnd)
      history += ((point, objective(point)))
      it += 1
    }
    // Report only points this search evaluated (warm-start evals were paid
    // by the caller).
    SearchResult(history.drop(warmStart.size).toVector)
  }

  /** Propose the next point given the observation history (exposed for tests). */
  def suggest(history: Vector[(Vector[Int], Double)], rnd: Random): Vector[Int] = {
    val sorted = history.sortBy(_._2)
    val nGood = math.max(1, math.ceil(Gamma * sorted.size).toInt)
    val good = sorted.take(nGood).map(_._1)
    val bad = sorted.drop(nGood).map(_._1)
    val goodDist = space.dims.indices.map(d => parzen(d, good)).toVector
    val badDist = space.dims.indices.map(d => parzen(d, if (bad.nonEmpty) bad else good)).toVector

    var best: Vector[Int] = null
    var bestScore = Double.NegativeInfinity
    var c = 0
    while (c < NCandidates) {
      val cand = goodDist.map(sample(_, rnd))
      var score = 0.0
      var d = 0
      while (d < cand.length) {
        score += math.log(goodDist(d)(cand(d))) - math.log(badDist(d)(cand(d)))
        d += 1
      }
      if (score > bestScore) { bestScore = score; best = cand }
      c += 1
    }
    best
  }

  /** Smoothed categorical density for dimension `d` from observed points. */
  private def parzen(d: Int, points: Vector[Vector[Int]]): Array[Double] = {
    val size = space.dims(d).size
    val counts = new Array[Double](size)
    java.util.Arrays.fill(counts, PriorWeight / size)
    points.foreach(p => counts(p(d)) += 1.0)
    val total = counts.sum
    counts.map(_ / total)
  }

  private def sample(dist: Array[Double], rnd: Random): Int = {
    val r = rnd.nextDouble()
    var acc = 0.0
    var i = 0
    while (i < dist.length) {
      acc += dist(i)
      if (r < acc) return i
      i += 1
    }
    dist.length - 1
  }
}

object TPE {
  private val Gamma = 0.2       // loss quantile separating good from bad observations
  private val NStartup = 5      // uniform draws before the surrogate takes over
  private val NCandidates = 24  // samples from the good density ranked per suggestion
  private val PriorWeight = 1.0 // pseudo-count spread over each dimension's values
}

/** Uniform random search over the same space — the paper's "Random" baseline
  * search strategy inside query pools.
  */
final class RandomSearch(space: ParamSpace, seed: Long = 0L) {
  def minimize(objective: Vector[Int] => Double, iterations: Int): SearchResult = {
    require(iterations >= 1, "need at least one iteration")
    val rnd = new Random(seed)
    SearchResult(Vector.fill(iterations) {
      val p = space.randomPoint(rnd)
      (p, objective(p))
    })
  }
}
