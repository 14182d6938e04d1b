package repro.core

import java.util.concurrent.{Callable, ExecutionException, ExecutorService, Executors}
import java.util.concurrent.atomic.AtomicInteger
import scala.util.{Failure, Success, Try}

/** The search's one parallel primitive: an order-preserving map over a fixed
  * pool of daemon threads, one per available processor.
  *
  * It carries units of the search that are independent given their seeds
  * (QTI layer nodes, SQL-generation pools). Each unit reads only memoized
  * evaluator values, which depend on the query alone, and results are merged
  * in input order, so a run's results do not depend on the core count or on
  * thread timing.
  *
  * A call made from one of the pool's own threads runs inline: a nested use
  * would otherwise wait for tasks queued behind its own caller, and the
  * fixed pool would deadlock.
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
