package repro

import java.util.concurrent.{Callable, ConcurrentHashMap, ExecutionException, ExecutorService, Executors}
import java.util.concurrent.atomic.AtomicInteger
import scala.util.{Failure, Success, Try}

/** The program's one parallel primitive: an order-preserving map over a
  * fixed pool of daemon threads, one per available processor.
  *
  * It carries units that are independent given their seeds: the search's
  * QTI layer nodes and SQL-generation pools, and the trees of a random
  * forest (`RandomForestTrainer`). A search unit reads only memoized
  * evaluator values, which depend on the query alone, and a tree reads only
  * its own bootstrap sample and seed. Results are merged in input order, so
  * a run's results do not depend on the core count or on thread timing.
  *
  * A call made from one of the pool's own threads runs inline: a nested use
  * would otherwise wait for tasks queued behind its own caller, and the
  * fixed pool would deadlock. So a forest fit by a search unit fits its
  * trees one after another, and a final fit made on the caller's thread
  * spreads them over every core.
  */
object Parallel {

  private final class Worker(r: Runnable, name: String) extends Thread(r, name)

  private val threads: Int = Runtime.getRuntime.availableProcessors

  private lazy val pool: ExecutorService = {
    val created = new AtomicInteger()
    Executors.newFixedThreadPool(threads, (r: Runnable) => {
      val t = new Worker(r, s"feataug-search-${created.incrementAndGet()}")
      t.setDaemon(true)
      t
    })
  }

  /** `xs.map(f)` with the calls spread over the pool; results keep input
    * order. If calls throw, the rest still run to completion and the first
    * failure in input order is rethrown.
    */
  def map[A, B](xs: Seq[A])(f: A => B): Vector[B] =
    if (xs.sizeIs <= 1 || threads == 1 || Thread.currentThread.isInstanceOf[Worker]) xs.iterator.map(f).toVector
    else {
      val futures = xs.iterator.map(x => pool.submit(new Callable[B] { def call(): B = f(x) })).toVector
      futures.map(fu => Try(fu.get())).map {
        case Success(b) => b
        case Failure(e: ExecutionException) => throw e.getCause
        case Failure(e) => throw e
      }
    }
}

/** A memo that computes each key's value once, on the first call for that
  * key. Later and concurrent callers of the key wait for that one
  * computation; callers of other keys do not, because the value is a
  * `lazy val` of a cell that locks only itself, created under the map's
  * lock and computed outside it.
  */
final class Memo[K, V] {
  private final class Once(compute: => V) { lazy val value: V = compute }
  private val cells = new ConcurrentHashMap[K, Once]

  def apply(key: K)(compute: => V): V = cells.computeIfAbsent(key, _ => new Once(compute)).value

  /** Keys computed or being computed. */
  def size: Int = cells.size
}
