package featbench

import scala.collection.mutable

/** The benchmark's own feature store, handed to `Evaluator` as its
  * `featureStore`. `Evaluator.feature` calls `getOrElseUpdate` once per
  * evaluation, so a lookup is one candidate evaluation after memoisation and
  * a miss is exactly one `FeatureQueryExecutor.featureValues` call. Timing a
  * miss therefore times the executor layer from outside the program.
  */
final class CountingStore extends mutable.AbstractMap[String, Array[Double]] {
  private val columns = mutable.HashMap.empty[String, Array[Double]]
  private var hitCount = 0L
  private val missNanos = mutable.ArrayBuffer.empty[Long]

  override def getOrElseUpdate(key: String, op: => Array[Double]): Array[Double] =
    columns.get(key) match {
      case Some(v) =>
        hitCount += 1
        v
      case None =>
        val t0 = System.nanoTime()
        val v = op
        missNanos += System.nanoTime() - t0
        columns.update(key, v)
        v
    }

  /** Counters accumulated since the store was created. */
  def snapshot: StoreCounts = StoreCounts(hitCount, missNanos.toVector)

  override def get(key: String): Option[Array[Double]] = columns.get(key)
  override def iterator: Iterator[(String, Array[Double])] = columns.iterator
  override def addOne(kv: (String, Array[Double])): this.type = { columns.addOne(kv); this }
  override def subtractOne(key: String): this.type = { columns.subtractOne(key); this }
}

/** Store counters at one instant; `delta` gives the work between two. */
final case class StoreCounts(hits: Long, missNanos: Vector[Long]) {
  def misses: Int = missNanos.size
  def lookups: Long = hits + misses
  def busyNanos: Long = missNanos.sum
  def delta(before: StoreCounts): StoreCounts =
    StoreCounts(hits - before.hits, missNanos.drop(before.missNanos.size))
}
