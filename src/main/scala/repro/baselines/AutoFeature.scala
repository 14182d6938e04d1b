package repro.baselines

import scala.util.Random
import repro.ml._

/** AutoFeature (Liu et al., ICDE'22) — RL-based iterative feature
  * augmentation for the one-to-one scenario. Each step an agent picks the
  * next candidate feature; the reward is the downstream model's validation
  * improvement; improving features are kept.
  *
  * Two agents, as in the paper:
  *  - MAB: UCB1 over candidate arms.
  *  - DQN: substituted by Q-learning with *linear* function approximation
  *    over (feature one-hot, state) encodings — no deep-RL stack exists in
  *    this offline image; the preserved behaviour is "a learned value
  *    function predicts which feature to add next" (see DESIGN.md).
  */
object AutoFeature {

  sealed trait Agent { def name: String }
  case object MAB extends Agent { val name = "AutoFeat-MAB" }
  case object DQN extends Agent { val name = "AutoFeat-DQN" }

  private val Iterations = 60 // agent steps per episode, one model fit each

  /** Run the augmentation episode; returns selected candidate indices. */
  def select(
      agent: Agent,
      base: Array[Array[Double]],
      candidates: Vector[Array[Double]],
      y: Array[Double],
      task: Task,
      modelKind: ModelKind,
      split: Splits.Split,
      k: Int,
      seed: Long,
  ): Vector[Int] = {
    require(candidates.nonEmpty, "AutoFeature needs candidates")
    val rnd = new Random(seed)
    val nArms = candidates.size
    val selected = scala.collection.mutable.ArrayBuffer.empty[Int]
    var current = FeatureSelectors.evalSet(base, candidates, Vector.empty, y, task, modelKind, split, seed)

    // MAB state
    val pulls = new Array[Int](nArms)
    val rewardSum = new Array[Double](nArms)
    // Q-learning state: Q(a) = w(a) . [1, |selected|/k, lastReward]
    val qw = Array.fill(nArms)(Array(0.0, 0.0, 0.0))
    var lastReward = 0.0
    val alpha = 0.3
    val epsilon = 0.2

    var it = 0
    var totalPulls = 0
    while (it < Iterations && selected.size < k) {
      val available = candidates.indices.filterNot(selected.contains)
      if (available.isEmpty) return selected.toVector
      val arm = agent match {
        case MAB =>
          available.find(pulls(_) == 0).getOrElse {
            available.maxBy { a =>
              rewardSum(a) / pulls(a) + math.sqrt(2 * math.log(math.max(1, totalPulls)) / pulls(a))
            }
          }
        case DQN =>
          if (rnd.nextDouble() < epsilon) available(rnd.nextInt(available.size))
          else available.maxBy(a => qValue(qw(a), selected.size, k, lastReward))
      }
      val metric = FeatureSelectors.evalSet(
        base, candidates, selected.toVector :+ arm, y, task, modelKind, split, seed)
      val reward = metric - current
      if (reward > 0) { selected += arm; current = metric }
      pulls(arm) += 1; totalPulls += 1; rewardSum(arm) += reward
      // TD(0)-style update toward the observed reward.
      val feat = stateVec(selected.size, k, lastReward)
      val pred = qValue(qw(arm), selected.size, k, lastReward)
      val err = reward - pred
      var j = 0
      while (j < 3) { qw(arm)(j) += alpha * err * feat(j); j += 1 }
      lastReward = reward
      it += 1
    }
    selected.toVector
  }

  private def stateVec(nSel: Int, k: Int, lastReward: Double): Array[Double] =
    Array(1.0, nSel.toDouble / math.max(1, k), lastReward)

  private def qValue(w: Array[Double], nSel: Int, k: Int, lastReward: Double): Double = {
    val s = stateVec(nSel, k, lastReward)
    w(0) * s(0) + w(1) * s(1) + w(2) * s(2)
  }
}
