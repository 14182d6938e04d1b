package repro.baselines

import scala.util.Random
import repro.ml._

/** ARDA (Chepurko et al., VLDB'20) — random-injection feature selection for
  * the one-to-one scenario: join every relevant-table column, inject random
  * noise columns, fit a tree ensemble, and keep only real features whose
  * importance beats the noise features' importance threshold.
  */
object ARDA {

  private val NoiseCols = 10 // injected Gaussian columns
  private val Tau = 0.9      // the cutoff quantile of their importances

  /** Select up to `k` candidate indices: those whose importance beats the
    * [[Tau]] quantile of [[NoiseCols]] injected noise columns' importances.
    */
  def select(
      base: Array[Array[Double]],
      candidates: Vector[Array[Double]],
      y: Array[Double],
      task: Task,
      split: Splits.Split,
      k: Int,
      seed: Long,
  ): Vector[Int] = {
    require(candidates.nonEmpty, "ARDA needs candidates")
    val rnd = new Random(seed)
    val n = y.length
    val noise = Vector.fill(NoiseCols)(Array.fill(n)(rnd.nextGaussian()))

    val data = DenseData.appendColumns(base, candidates ++ noise, y).select(split.train)
    val (x, yt) = (data.x, data.y)

    // Importance from a bagged tree ensemble over indicator targets.
    val imp = new Array[Double](x(0).length)
    val ranks = RegressionTree.ranks(x)
    Task.headTargets(task, yt).zipWithIndex.foreach { case (t, ti) =>
      (0 until 8).foreach { b =>
        val bag = Array.fill(x.length)(rnd.nextInt(x.length))
        val tree = new RegressionTree(maxDepth = 4, featureFraction = 0.7, seed = seed + 131L * (ti * 8 + b))
        tree.fit(bag.map(x(_)), bag.map(t(_)), RegressionTree.presort(ranks, bag))
        tree.addImportance(imp)
      }
    }
    val nb = base(0).length
    val candImp = candidates.indices.map(i => imp(nb + i))
    val noiseImp = noise.indices.map(i => imp(nb + candidates.size + i)).sorted
    val cutoff = noiseImp((Tau * (noiseImp.size - 1)).toInt)
    val kept = candidates.indices.filter(i => candImp(i) > cutoff)
    val ranked = kept.sortBy(i => -candImp(i)).take(k).toVector
    // Degenerate guard: if the threshold kills everything, keep the single
    // best real feature (ARDA always returns a non-empty augmentation).
    if (ranked.nonEmpty) ranked else Vector(candidates.indices.maxBy(candImp))
  }
}
