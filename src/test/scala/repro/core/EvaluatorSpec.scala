package repro.core

import repro.SparkSpec
import repro.ml.{BinaryClassification, LRModel, Splits}
import repro.proxy.{LRProxy, MIProxy, SCProxy}

class EvaluatorSpec extends SparkSpec with MiniData {

  private def mkEvaluator(proxy: repro.proxy.ProxyKind = MIProxy) =
    new Evaluator(executor, baseX, yArr, BinaryClassification, LRModel, split, proxy, seed = 7)

  private val signalQuery = QuerySpec(AggFunc.Sum, "amt",
    Vector(Predicate("cat", Some("A"), None, None), Predicate("t", None, Some(5.0), None)),
    Vector("uid"))
  private val noiseQuery = QuerySpec(AggFunc.Count, "t",
    Vector(Predicate("cat", Some("D"), None, None), Predicate("t", None, None, Some(2.0))),
    Vector("uid"))

  test("the planted signal query scores a lower real loss than a noise query") {
    val ev = mkEvaluator()
    assert(ev.realLoss(signalQuery) < ev.realLoss(noiseQuery),
      s"signal ${ev.realLoss(signalQuery)} vs noise ${ev.realLoss(noiseQuery)}")
  }

  test("the planted signal query scores a higher MI proxy than a noise query") {
    val ev = mkEvaluator(MIProxy)
    assert(ev.proxyScore(signalQuery) > ev.proxyScore(noiseQuery))
  }

  test("the planted signal query scores a higher Spearman proxy than a noise query") {
    val ev = mkEvaluator(SCProxy)
    assert(ev.proxyScore(signalQuery) > ev.proxyScore(noiseQuery))
  }

  test("the LR proxy also prefers the signal query") {
    val ev = mkEvaluator(LRProxy)
    assert(ev.proxyScore(signalQuery) > ev.proxyScore(noiseQuery))
  }

  test("feature execution is memoized (one Spark query per distinct spec)") {
    val ev = mkEvaluator()
    ev.realLoss(signalQuery); ev.realLoss(signalQuery); ev.proxyScore(signalQuery)
    assert(ev.queryExecutions == 1)
    assert(ev.realEvaluations == 1)
  }

  test("a shared feature store is reused across evaluators") {
    val store = scala.collection.mutable.HashMap.empty[String, Array[Double]]
    val ev1 = new Evaluator(executor, baseX, yArr, BinaryClassification, LRModel, split,
      MIProxy, 7, fastModels = true, featureStore = store)
    ev1.realLoss(signalQuery)
    val before = store.size
    val ev2 = new Evaluator(executor, baseX, yArr, BinaryClassification, LRModel, split,
      SCProxy, 8, fastModels = true, featureStore = store)
    ev2.proxyScore(signalQuery)
    assert(store.size == before) // no re-execution
  }

  test("queryExecutions counts only the executions of this evaluator") {
    val store = scala.collection.mutable.HashMap.empty[String, Array[Double]]
    def shared() = new Evaluator(executor, baseX, yArr, BinaryClassification, LRModel, split,
      MIProxy, 7, fastModels = true, featureStore = store)
    val ev1 = shared()
    ev1.proxyScore(signalQuery)
    val ev2 = shared()
    ev2.proxyScore(signalQuery) // served by the store
    ev2.proxyScore(noiseQuery)
    assert(store.size == 2)
    assert(ev1.queryExecutions == 1)
    assert(ev2.queryExecutions == 1)
  }

  test("withFeature / withFeatures append the expected number of columns") {
    val ev = mkEvaluator()
    val f = ev.feature(signalQuery)
    assert(ev.withFeature(f).numCols == baseX(0).length + 1)
    assert(ev.withFeatures(Seq(f, f, f)).numCols == baseX(0).length + 3)
  }

  test("real losses are valid task losses (within [0, 1] for AUC)") {
    val ev = mkEvaluator()
    val l = ev.realLoss(signalQuery)
    assert(l >= 0.0 && l <= 1.0)
  }

  test("deterministic: the same evaluator setup gives identical losses") {
    val a = mkEvaluator().realLoss(signalQuery)
    val b = mkEvaluator().realLoss(signalQuery)
    assert(a == b)
  }

  test("Splits.threeWay split sizes are used as-is by the evaluator") {
    assert(split.train.length == (nUsers * 0.6).toInt)
    assert(Splits.threeWay(nUsers, 42).train.toSeq == split.train.toSeq)
  }
}
