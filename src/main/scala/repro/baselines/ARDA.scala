package repro.baselines

import scala.util.Random
import repro.ml._

/** ARDA (Chepurko et al., VLDB'20) — random-injection feature selection for
  * the one-to-one scenario: join every relevant-table column, inject random
  * noise columns, fit a tree ensemble, and keep only real features whose
  * importance beats the noise features' importance threshold.
  */
object ARDA {

  /** Select up to `k` candidate indices. `noiseCols` synthetic columns are
    * injected; the cutoff is the `tau` quantile of noise importances.
    */
  def select(
      base: Array[Array[Double]],
      candidates: Vector[CandidateFeature],
      y: Array[Double],
      task: Task,
      split: Splits.Split,
      k: Int,
      noiseCols: Int = 10,
      tau: Double = 0.9,
      seed: Long = 7L,
  ): Vector[Int] = {
    require(candidates.nonEmpty, "ARDA needs candidates")
    val rnd = new Random(seed)
    val n = y.length
    val noise = Vector.fill(noiseCols)(Array.fill(n)(rnd.nextGaussian()))

    val trainIdx = split.train
    val x = trainIdx.map(i => base(i) ++ candidates.map(_.values(i)) ++ noise.map(_(i)))
    val yt = trainIdx.map(y)

    // Importance from a bagged tree ensemble over indicator targets.
    val imp = new Array[Double](x(0).length)
    val ranks = RegressionTree.ranks(x)
    val targets: Vector[Array[Double]] = task match {
      case MultiClassification(c) =>
        (0 until c).map(cl => yt.map(v => if (v.toInt == cl) 1.0 else 0.0)).toVector
      case _ => Vector(yt)
    }
    targets.zipWithIndex.foreach { case (t, ti) =>
      (0 until 8).foreach { b =>
        val bag = Array.fill(x.length)(rnd.nextInt(x.length))
        val tree = new RegressionTree(maxDepth = 4, minSamplesLeaf = 4,
          featureFraction = 0.7, seed = seed + 131L * (ti * 8 + b))
        tree.fit(bag.map(x(_)), bag.map(t(_)), RegressionTree.presort(ranks, bag))
        tree.addImportance(imp)
      }
    }
    val nb = base(0).length
    val candImp = candidates.indices.map(i => imp(nb + i))
    val noiseImp = noise.indices.map(i => imp(nb + candidates.size + i)).sorted
    val cutoff = noiseImp((tau * (noiseImp.size - 1)).toInt)
    val kept = candidates.indices.filter(i => candImp(i) > cutoff)
    val ranked = kept.sortBy(i => -candImp(i)).take(k).toVector
    // Degenerate guard: if the threshold kills everything, keep the single
    // best real feature (ARDA always returns a non-empty augmentation).
    if (ranked.nonEmpty) ranked else Vector(candidates.indices.maxBy(candImp))
  }
}
