package repro.core

import repro.SparkSpec
import repro.ml.{BinaryClassification, DenseData, LRModel, Models, Splits}
import repro.proxy.{LRProxy, MIProxy, SCProxy}

class EvaluatorSpec extends SparkSpec with MiniData {

  private def mkEvaluator(proxy: repro.proxy.ProxyKind = MIProxy) =
    new Evaluator(executor, baseX, yArr, BinaryClassification, LRModel, split, proxy, seed = 7,
      featureStore = scala.collection.mutable.HashMap.empty)

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
      MIProxy, 7, featureStore = store)
    ev1.realLoss(signalQuery)
    val before = store.size
    val ev2 = new Evaluator(executor, baseX, yArr, BinaryClassification, LRModel, split,
      SCProxy, 8, featureStore = store)
    ev2.proxyScore(signalQuery)
    assert(store.size == before) // no re-execution
  }

  test("queryExecutions counts only the executions of this evaluator") {
    val store = scala.collection.mutable.HashMap.empty[String, Array[Double]]
    def shared() = new Evaluator(executor, baseX, yArr, BinaryClassification, LRModel, split,
      MIProxy, 7, featureStore = store)
    val ev1 = shared()
    ev1.proxyScore(signalQuery)
    val ev2 = shared()
    ev2.proxyScore(signalQuery) // served by the store
    ev2.proxyScore(noiseQuery)
    assert(store.size == 2)
    assert(ev1.queryExecutions == 1)
    assert(ev2.queryExecutions == 1)
  }

  test("concurrent evaluations compute each query once and equal a single-threaded evaluator's") {
    // A store that, like the benchmark's, is not thread-safe and counts
    // lookups and misses; `inside` catches two lookups overlapping.
    final class CountingStore extends scala.collection.mutable.AbstractMap[String, Array[Double]] {
      private val columns = scala.collection.mutable.HashMap.empty[String, Array[Double]]
      private val inside = new java.util.concurrent.atomic.AtomicInteger
      var lookups = 0
      var misses = 0
      var overlapped = false
      override def getOrElseUpdate(key: String, op: => Array[Double]): Array[Double] = {
        if (inside.incrementAndGet() > 1) overlapped = true
        try {
          lookups += 1
          columns.getOrElse(key, { misses += 1; val v = op; columns.update(key, v); v })
        } finally inside.decrementAndGet()
      }
      override def get(key: String): Option[Array[Double]] = columns.get(key)
      override def iterator: Iterator[(String, Array[Double])] = columns.iterator
      override def addOne(kv: (String, Array[Double])): this.type = { columns.addOne(kv); this }
      override def subtractOne(key: String): this.type = { columns.subtractOne(key); this }
    }
    val queries = for {
      agg <- Vector(AggFunc.Sum, AggFunc.Avg, AggFunc.Count)
      cat <- Vector("A", "B", "C", "D")
    } yield QuerySpec(agg, "amt", Vector(Predicate("cat", Some(cat), None, None)), Vector("uid"))
    val store = new CountingStore
    val ev = new Evaluator(executor, baseX, yArr, BinaryClassification, LRModel, split,
      MIProxy, 7, featureStore = store)
    val threads = 8
    val start = new java.util.concurrent.CountDownLatch(1)
    val pool = java.util.concurrent.Executors.newFixedThreadPool(threads)
    val results = try {
      val futures = (0 until threads).map { t =>
        pool.submit(new java.util.concurrent.Callable[Vector[(String, Long, Long)]] {
          def call() = {
            start.await()
            // Every thread walks all queries, from a different offset.
            queries.indices.toVector.map(i => queries((i + 3 * t) % queries.size)).map { q =>
              (q.cacheKey, java.lang.Double.doubleToRawLongBits(ev.realLoss(q)),
                java.lang.Double.doubleToRawLongBits(ev.proxyScore(q)))
            }
          }
        })
      }
      start.countDown()
      futures.flatMap(_.get())
    } finally pool.shutdown()
    assert(!store.overlapped, "the store saw overlapping lookups")
    assert(store.misses == queries.size)
    assert(store.lookups == 2 * queries.size) // one per real and one per proxy evaluation
    assert(ev.queryExecutions == queries.size)
    assert(ev.realEvaluations == queries.size)
    val fresh = mkEvaluator()
    val expected = queries.map { q =>
      q.cacheKey -> (java.lang.Double.doubleToRawLongBits(fresh.realLoss(q)),
        java.lang.Double.doubleToRawLongBits(fresh.proxyScore(q)))
    }.toMap
    results.foreach { case (key, loss, proxy) => assert((loss, proxy) == expected(key), key) }
  }

  test("appendColumns rows are base row ++ columns; realLoss fits them") {
    val ev = mkEvaluator()
    val cols = Seq(ev.feature(signalQuery), ev.feature(noiseQuery), ev.feature(signalQuery).map(-_))
    def bits(r: Array[Double]) = r.toSeq.map(java.lang.Double.doubleToRawLongBits)
    for (k <- 0 to cols.size) {
      val data = DenseData.appendColumns(baseX, cols.take(k), yArr)
      assert(data.y.sameElements(yArr))
      assert(data.numRows == baseX.length)
      baseX.indices.foreach(i => assert(bits(data.x(i)) == bits(baseX(i) ++ cols.take(k).map(_(i))), s"k=$k row $i"))
    }
    val oneColumn = DenseData.appendColumns(baseX, cols.take(1), yArr)
    val expected = Models.splitLoss(LRModel, BinaryClassification, oneColumn, split.train, split.valid, 7, fast = true)
    assert(java.lang.Double.doubleToRawLongBits(ev.realLoss(signalQuery)) ==
      java.lang.Double.doubleToRawLongBits(expected))
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
