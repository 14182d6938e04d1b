package repro.core

import repro.Parallel
import repro.hpo.TPE
import repro.ml.{DenseData, RidgeRegressionTrainer}

/** The Query Template Identification component (Section VI).
  *
  * The space of predicate attribute combinations P ⊆ attr is explored as a
  * tree (layer d = combinations of d attributes) with beam search:
  *
  *  - Optimization 1 (low-cost proxy): a node's effectiveness is the best
  *    proxy score found by a short TPE run in its query pool, instead of
  *    the downstream model's validation loss.
  *  - Optimization 2 (promising-template prediction): from layer 2 on, a
  *    ridge regressor over one-hot template encodings — trained on all
  *    nodes evaluated so far — predicts candidate scores, and only the
  *    top-β predicted candidates are actually evaluated.
  *
  * Returns every evaluated node so callers can take the global top-n
  * (the paper picks the n best across all layers).
  */
object QueryTemplateIdentification {

  /** One evaluated tree node: an attribute combination, in `attrs` order,
    * and its proxy score (higher is better). The attribute vector is the
    * node's identity: two nodes with the same attribute set have equal
    * vectors.
    */
  final case class Node(pAttrs: Vector[String], score: Double)

  final case class Result(nodes: Vector[Node]) {
    def templatesEvaluated: Int = nodes.size
    /** All nodes ranked by effectiveness descending. */
    def ranked: Vector[Node] = nodes.sortBy(-_.score)
    def topN(n: Int): Vector[Vector[String]] = ranked.take(n).map(_.pAttrs)
  }

  def identify(
      attrs: Vector[String],
      mkCodec: Vector[String] => QueryVectorCodec,
      evaluator: Evaluator,
      budget: SearchBudget,
      usePredictor: Boolean,
      seed: Long,
  ): Result = {
    require(attrs.nonEmpty, "no candidate predicate attributes")
    val evaluated = scala.collection.mutable.ArrayBuffer.empty[Node]

    def effectiveness(p: Vector[String], nodeSeed: Long): Double = {
      val codec = mkCodec(p)
      val obj = (v: Vector[Int]) => -evaluator.proxyScore(codec.decode(v))
      -new TPE(codec.space, nodeSeed).minimize(obj, budget.qtiProxyIters).best._2
    }

    // A layer's nodes are independent given their seeds, so they run
    // concurrently; they are recorded in layer order, so the predictor sees
    // the same rows in the same order as a sequential run.
    def evaluateLayer(layer: Vector[(Vector[String], Long)]): Vector[Node] = {
      val nodes = Parallel.map(layer) { case (p, nodeSeed) => Node(p, effectiveness(p, nodeSeed)) }
      evaluated ++= nodes
      nodes
    }

    // Layer 1: every singleton is evaluated (this also bootstraps the
    // predictor's training data, as in Figure 4).
    val layer1 = evaluateLayer(attrs.zipWithIndex.map { case (a, i) => (Vector(a), seed + i) })
    var beam = layer1.sortBy(-_.score).take(budget.beamWidth)

    var depth = 2
    while (depth <= math.min(budget.beamDepth, attrs.size) && beam.nonEmpty) {
      // Expansions of the beam, in `attrs` order, each once and none evaluated before.
      val candidates = beam.flatMap { node =>
        attrs.filterNot(node.pAttrs.contains).map(a => (node.pAttrs :+ a).sortBy(attrs.indexOf))
      }.distinct.filterNot(evaluated.map(_.pAttrs).toSet)

      val toEvaluate =
        if (!usePredictor || candidates.size <= budget.beamWidth) candidates
        else {
          val predictor = fitPredictor(attrs, evaluated.toVector)
          candidates.sortBy(p => -predictor(QueryTemplate.encode(attrs, p))).take(budget.beamWidth)
        }

      val layer = evaluateLayer(toEvaluate.zipWithIndex.map { case (p, i) => (p, seed + 1000L * depth + i) })
      beam = layer.sortBy(-_.score).take(budget.beamWidth)
      depth += 1
    }

    Result(evaluated.toVector)
  }

  /** Ridge regression over one-hot encodings → predicted proxy score. */
  private def fitPredictor(attrs: Vector[String], nodes: Vector[Node]): Array[Double] => Double = {
    val x = nodes.map(n => QueryTemplate.encode(attrs, n.pAttrs)).toArray
    val y = nodes.map(_.score).toArray
    val model = new RidgeRegressionTrainer(l2 = 1e-2).fit(DenseData(x, y))
    enc => model.scores(enc)(0)
  }
}
