package repro.core

import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration._
import org.scalatest.funsuite.AnyFunSuite
import repro.Parallel

class ParallelSpec extends AnyFunSuite {

  test("Parallel.map keeps input order when tasks finish out of order") {
    val xs = 0 until 64
    val out = Parallel.map(xs) { i => Thread.sleep((64 - i) % 5); i * i }
    assert(out == xs.map(i => i * i))
  }

  test("Parallel.map rethrows the first failing task's exception in input order") {
    val e = intercept[IllegalStateException] {
      Parallel.map(0 until 16) { i =>
        if (i == 9 || i == 4) { Thread.sleep(20 - 2 * i); throw new IllegalStateException(s"boom $i") }
        i
      }
    }
    assert(e.getMessage == "boom 4")
  }

  test("a nested Parallel.map completes instead of deadlocking the fixed pool") {
    // More outer tasks than pool threads: if an inner call queued its tasks
    // behind the outer ones, every worker would wait on work nobody runs.
    val n = 4 * Runtime.getRuntime.availableProcessors
    val nested = Future(Parallel.map(0 until n) { i =>
      Parallel.map(0 until n) { j => Thread.sleep(1); i * j }.sum
    })(ExecutionContext.global)
    val out = Await.result(nested, 60.seconds)
    assert(out == (0 until n).map(i => i * (0 until n).sum))
  }
}
