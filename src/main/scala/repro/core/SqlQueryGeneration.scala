package repro.core

import repro.hpo.{RandomSearch, TPE}

/** Search budgets for the whole FeatAug pipeline. The paper runs 200
  * warm-up proxy iterations / top-50 real evals / 40 generation iterations
  * with beam depth 4; the bench budget ([[repro.exp.Experiments.benchBudget]])
  * scales these proportionally for the simulated (small) datasets and keeps
  * the paper's 8 templates x 5 queries — see DESIGN.md Section 5. Every
  * budget states every field.
  */
final case class SearchBudget(
    warmupIters: Int,
    warmupTopK: Int,
    genIters: Int,
    qtiProxyIters: Int,
    beamWidth: Int,
    beamDepth: Int,
    nTemplates: Int,
    queriesPerTemplate: Int,
    maxCats: Int,
    numQuantiles: Int,
) {
  require(warmupIters >= 1 && warmupTopK >= 1 && genIters >= 1, "positive budgets required")
  require(beamWidth >= 1 && beamDepth >= 1, "positive beam parameters required")
  def numFeatures: Int = nTemplates * queriesPerTemplate
}

/** The SQL Query Generation component (Section V): TPE search in the query
  * pool of a fixed template, optionally warm-started from a proxy round.
  */
object SqlQueryGeneration {

  /** Search `codec.space` for effective queries and return every
    * real-evaluated (query, validation loss) ranked by loss ascending.
    *
    * With warm-up: round 1 runs TPE on the proxy objective for
    * `warmupIters` iterations, the top `warmupTopK` proxy queries are
    * evaluated for real, and those observations seed round 2's surrogate
    * which runs `genIters` real iterations. Without warm-up (ablation
    * "NoWU"), a single TPE run gets `warmupTopK + genIters` real
    * iterations — the same *real-evaluation* budget, mirroring the paper's
    * 50+40=90-iteration fair comparison.
    */
  def generate(codec: QueryVectorCodec, evaluator: Evaluator, budget: SearchBudget,
               useWarmup: Boolean, seed: Long): Vector[(QuerySpec, Double)] = {
    val objReal = (v: Vector[Int]) => evaluator.realLoss(codec.decode(v))
    val objProxy = (v: Vector[Int]) => -evaluator.proxyScore(codec.decode(v))

    val history: Vector[(Vector[Int], Double)] =
      if (useWarmup) {
        val proxyRes = new TPE(codec.space, seed).minimize(objProxy, budget.warmupIters)
        val top = proxyRes.ranked.take(budget.warmupTopK).map(_._1)
        val warmObs = top.map(p => (p, objReal(p)))
        new TPE(codec.space, seed + 1).minimize(objReal, budget.genIters, warmStart = warmObs).history
      } else {
        new TPE(codec.space, seed + 1).minimize(objReal, budget.warmupTopK + budget.genIters).history
      }

    rank(history.map { case (p, l) => (codec.decode(p), l) })
  }

  /** The Random baseline's pool search: uniform sampling with the same
    * number of real evaluations as FeatAug's generation phase.
    */
  def generateRandom(codec: QueryVectorCodec, evaluator: Evaluator, budget: SearchBudget,
                     seed: Long): Vector[(QuerySpec, Double)] = {
    val objReal = (v: Vector[Int]) => evaluator.realLoss(codec.decode(v))
    val res = new RandomSearch(codec.space, seed).minimize(objReal, budget.warmupTopK + budget.genIters)
    rank(res.history.map { case (p, l) => (codec.decode(p), l) })
  }

  /** Distinct queries by cacheKey, best loss first. */
  private def rank(obs: Vector[(QuerySpec, Double)]): Vector[(QuerySpec, Double)] =
    obs.groupBy(_._1.cacheKey).values.map(_.minBy(_._2)).toVector.sortBy(_._2)
}
