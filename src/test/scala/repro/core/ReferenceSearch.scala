package repro.core

import scala.collection.mutable
import repro.hpo.TPE
import repro.ml.{DenseData, RidgeRegressionTrainer}

/** Sequential reference copies of the search: QTI evaluates one node at a
  * time and SQL generation one pool at a time, each unit recorded as soon as
  * it finishes. The concurrent [[QueryTemplateIdentification.identify]],
  * [[FeatAug.selectQueries]] and [[FeatAug.selectQueriesRandom]] must agree
  * with them exactly.
  */
object ReferenceSearch {
  import QueryTemplateIdentification.{Node, Result}
  import FeatAug.RunResult

  def identify(
      attrs: Vector[String],
      mkCodec: Vector[String] => QueryVectorCodec,
      evaluator: Evaluator,
      budget: SearchBudget,
      usePredictor: Boolean,
      seed: Long,
  ): Result = {
    require(attrs.nonEmpty, "no candidate predicate attributes")
    val evaluated = mutable.ArrayBuffer.empty[Node]
    val seen = mutable.HashSet.empty[String]

    def effectiveness(p: Vector[String], nodeSeed: Long): Double = {
      val codec = mkCodec(p)
      val obj = (v: Vector[Int]) => -evaluator.proxyScore(codec.decode(v))
      -new TPE(codec.space, nodeSeed).minimize(obj, budget.qtiProxyIters).best._2
    }

    def record(p: Vector[String], nodeSeed: Long): Node = {
      val node = Node(p, effectiveness(p, nodeSeed))
      evaluated += node
      seen += p.sorted.mkString(",")
      node
    }

    val layer1 = attrs.zipWithIndex.map { case (a, i) => record(Vector(a), seed + i) }
    var beam = layer1.sortBy(-_.score).take(budget.beamWidth)

    var depth = 2
    while (depth <= math.min(budget.beamDepth, attrs.size) && beam.nonEmpty) {
      val candidates = beam.flatMap { node =>
        attrs.filterNot(node.pAttrs.contains).map(a => (node.pAttrs :+ a).sortBy(attrs.indexOf))
      }.distinctBy(_.sorted.mkString(",")).filterNot(p => seen.contains(p.sorted.mkString(",")))

      val toEvaluate =
        if (!usePredictor || candidates.size <= budget.beamWidth) candidates
        else {
          val predictor = fitPredictor(attrs, evaluated.toVector)
          candidates.sortBy(p => -predictor(QueryTemplate.encode(attrs, p))).take(budget.beamWidth)
        }

      val layer = toEvaluate.zipWithIndex.map { case (p, i) => record(p, seed + 1000L * depth + i) }
      beam = layer.sortBy(-_.score).take(budget.beamWidth)
      depth += 1
    }

    Result(evaluated.toVector)
  }

  private def fitPredictor(attrs: Vector[String], nodes: Vector[Node]): Array[Double] => Double = {
    val x = nodes.map(n => QueryTemplate.encode(attrs, n.pAttrs)).toArray
    val y = nodes.map(_.score).toArray
    val model = new RidgeRegressionTrainer(l2 = 1e-2).fit(DenseData(x, y))
    enc => model.scores(enc)(0)
  }

  def selectQueries(
      attrs: Vector[String],
      mkCodec: Vector[String] => QueryVectorCodec,
      evaluator: Evaluator,
      config: FeatAugConfig,
  ): (Option[Result], RunResult) = {
    val budget =
      if (config.useQTI) config.budget
      else config.budget.copy(
        warmupIters = config.budget.warmupIters * config.budget.nTemplates,
        warmupTopK = config.budget.warmupTopK * config.budget.nTemplates,
        genIters = config.budget.genIters * config.budget.nTemplates)
    val qti =
      if (config.useQTI) Some(identify(attrs, mkCodec, evaluator, budget, usePredictor = true, seed = config.seed))
      else None
    val templates = qti.fold(Vector(attrs))(_.topN(budget.nTemplates))

    val chosen = mutable.LinkedHashMap.empty[String, QuerySpec]
    templates.zipWithIndex.foreach { case (p, i) =>
      val ranked = SqlQueryGeneration.generate(
        mkCodec(p), evaluator, budget, useWarmup = config.useWarmup, seed = config.seed + 7919L * (i + 1))
      val perPool = if (config.useQTI) budget.queriesPerTemplate else budget.numFeatures
      ranked.iterator
        .filterNot { case (q, _) => chosen.contains(q.cacheKey) }
        .take(perPool)
        .foreach { case (q, _) => chosen.update(q.cacheKey, q) }
    }
    (qti, RunResult(chosen.values.toVector, templates, evaluator.queryExecutions, evaluator.realEvaluations))
  }

  def selectQueriesRandom(
      attrs: Vector[String],
      mkCodec: Vector[String] => QueryVectorCodec,
      evaluator: Evaluator,
      budget: SearchBudget,
      seed: Long,
  ): RunResult = {
    val rnd = new scala.util.Random(seed)
    val templates = Vector.fill(budget.nTemplates) {
      val size = 1 + rnd.nextInt(math.min(attrs.size, budget.beamDepth))
      rnd.shuffle(attrs).take(size).sortBy(attrs.indexOf)
    }.distinctBy(_.mkString(","))
    val chosen = mutable.LinkedHashMap.empty[String, QuerySpec]
    templates.zipWithIndex.foreach { case (p, i) =>
      val ranked = SqlQueryGeneration.generateRandom(mkCodec(p), evaluator, budget, seed + 104729L * (i + 1))
      ranked.iterator
        .filterNot { case (q, _) => chosen.contains(q.cacheKey) }
        .take(budget.queriesPerTemplate)
        .foreach { case (q, _) => chosen.update(q.cacheKey, q) }
    }
    RunResult(chosen.values.toVector, templates, evaluator.queryExecutions, evaluator.realEvaluations)
  }
}
