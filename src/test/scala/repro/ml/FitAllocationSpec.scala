package repro.ml

import java.lang.management.ManagementFactory
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** An allocation budget for a full-budget DeepFM fit, measured with the
  * JVM's per-thread allocation counter after warm-up. Its one necessary
  * copy is the standardized training matrix; weights and buffers are per
  * fit, not per row or per sample, so the whole fit stays within a few
  * times that copy.
  */
class FitAllocationSpec extends AnyFunSuite {

  private val bean = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes this thread allocates while running `body`. */
  private def allocated(body: => Any): Long = {
    val before = bean.getCurrentThreadAllocatedBytes
    body
    bean.getCurrentThreadAllocatedBytes - before
  }

  test("a warmed-up DeepFM fit allocates at most 3x its standardized copy") {
    assume(bean.isThreadAllocatedMemorySupported && bean.isThreadAllocatedMemoryEnabled)
    val rnd = new Random(11)
    val x = Array.fill(1200)(Array.fill(11)(rnd.nextGaussian()))
    val y = x.map(r => if (r(0) + r(1) * r(2) + 0.5 * rnd.nextGaussian() > 0) 1.0 else 0.0)
    val data = DenseData(x, y)
    val trainer = Models.trainer(DeepFMModel, BinaryClassification, seed = 5L, fast = false)
    (1 to 8).foreach(_ => trainer.fit(data))
    val copy = (1 to 3).map(_ => allocated(x.map(_.clone()))).min
    val fit = (1 to 3).map(_ => allocated(trainer.fit(data))).min
    assert(fit <= 3 * copy, s"the fit allocated $fit bytes; its standardized copy takes $copy")
  }
}
