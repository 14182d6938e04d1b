package repro

import scala.util.Random
import repro.core._
import repro.exp.Experiments
import repro.ml._
import repro.proxy.{Association, MIProxy}

/** Raw-bit fingerprints of the ML and search layers, recorded once: every
  * score of each downstream model on a fixed seeded matrix, the association
  * scores on fixed columns, and the queries FeatAug(Full) selects on
  * [[MiniData]]. A change that moves any bit of any of them fails here.
  */
class GoldenFingerprintSpec extends SparkSpec with MiniData {

  private def bits(v: Double): Long = java.lang.Double.doubleToRawLongBits(v)

  /** A 64-bit hash of every score's raw bits, in row order. */
  private def fingerprint(scores: Array[Array[Double]]): Long =
    scores.iterator.flatMap(_.iterator).foldLeft(1125899906842597L)((h, v) => 31 * h + bits(v))

  // 80 rows of 4 features: three Gaussian columns and one with heavy ties.
  private val rnd = new Random(2024)
  private val x = Array.fill(80)(Array(rnd.nextGaussian(), rnd.nextGaussian(), rnd.nextGaussian(),
    math.rint(rnd.nextGaussian() * 2)))
  private val latent = x.map(r => r(0) - 0.5 * r(1) * r(2) + 0.3 * r(3) + rnd.nextGaussian() * 0.5)
  private val labels: Map[String, (Task, Array[Double])] = Map(
    "binary" -> (BinaryClassification, latent.map(s => if (s > 0) 1.0 else 0.0)),
    "4-class" -> (MultiClassification(4), latent.map(s => math.max(0, math.min(3, math.floor(s + 2))))),
    "regression" -> (Regression, latent),
  )
  private val fitRows = Array.range(0, 60)

  private val goldenScores: Map[String, Long] = Map(
    "LR/binary/fast=false" -> 0x202844084630c08eL,
    "LR/binary/fast=true" -> 0x7e88def9b8edc3d8L,
    "LR/4-class/fast=false" -> 0x47ac7b998cc7a3b8L,
    "LR/4-class/fast=true" -> 0x2c90253caa8bf95eL,
    "LR/regression/fast=false" -> 0x811bf33fa08ce902L,
    "LR/regression/fast=true" -> 0x811bf33fa08ce902L,
    "XGB/binary/fast=false" -> 0x1320de0a74089df8L,
    "XGB/binary/fast=true" -> 0xe607160d6ee45697L,
    "XGB/4-class/fast=false" -> 0xd4164cb75c2f3cdaL,
    "XGB/4-class/fast=true" -> 0xb43231f1b81c2c3cL,
    "XGB/regression/fast=false" -> 0xe4d4076dfedc5e6eL,
    "XGB/regression/fast=true" -> 0xac32990bd470278bL,
    "RF/binary/fast=false" -> 0x5c83d8fdb1af962dL,
    "RF/binary/fast=true" -> 0xbe4d47dd8747bce0L,
    "RF/4-class/fast=false" -> 0x0c6b5f21b25f4756L,
    "RF/4-class/fast=true" -> 0x3e69cdaac66d5663L,
    "RF/regression/fast=false" -> 0x85c984c4acea4b9fL,
    "RF/regression/fast=true" -> 0x95c2c127fca6a227L,
    "DeepFM/binary/fast=false" -> 0xf35265eccbe075d8L,
    "DeepFM/binary/fast=true" -> 0x1373cf0e391ba2aeL,
    "DeepFM/regression/fast=false" -> 0x7e8636d02bf9e5d3L,
    "DeepFM/regression/fast=true" -> 0xe6a01eda4e4077bbL,
  )

  for {
    kind <- Seq(LRModel, XGBModel, RFModel, DeepFMModel)
    label <- Seq("binary", "4-class", "regression")
    if !(kind == DeepFMModel && label == "4-class")
    fast <- Seq(false, true)
  } {
    val name = s"${kind.name}/$label/fast=$fast"
    test(s"$name: every score matches its golden fingerprint") {
      val (task, y) = labels(label)
      val pred = Models.trainer(kind, task, seed = 7L, fast = fast).fit(DenseData(x, y).select(fitRows))
      val got = fingerprint(pred.scoresAll(x))
      assert(goldenScores.get(name).contains(got), f"$name fingerprint 0x$got%016xL")
    }
  }

  private val goldenAssociation: Map[String, Long] = Map(
    "chi2/4-class" -> 0x40423d2340aeb943L,
    "chi2/binary" -> 0x4040bc47159d0ee5L,
    "gini/4-class" -> 0x3fbc699cd0033668L,
    "gini/binary" -> 0x3fcac28f5c28f5c4L,
    "mi/4-class" -> 0x3fdd73f0887616f9L,
    "mi/binary" -> 0x3fd073ecdd7ca1f4L,
    "mi/regression" -> 0x3fe7b6ad9f71bb53L,
    "mi/tied" -> 0x3fe1daffa32140d2L,
    "spearman/regression" -> 0x3fe7af58ef13cd98L,
    "spearman/tied" -> 0x3fddcf71cd175f04L,
  )

  test("MI, Chi2, Gini and Spearman match their golden bits") {
    val f = x.map(_(0))
    val tied = x.map(_(3))
    val (_, yb) = labels("binary")
    val (_, y4) = labels("4-class")
    val (_, yr) = labels("regression")
    val got = Map(
      "mi/binary" -> Association.mutualInformation(f, yb, BinaryClassification),
      "mi/4-class" -> Association.mutualInformation(f, y4, MultiClassification(4)),
      "mi/regression" -> Association.mutualInformation(f, yr, Regression),
      "mi/tied" -> Association.mutualInformation(tied, yr, Regression),
      "chi2/binary" -> Association.chi2(f, yb),
      "chi2/4-class" -> Association.chi2(tied, y4),
      "gini/binary" -> Association.giniGain(f, yb),
      "gini/4-class" -> Association.giniGain(tied, y4),
      "spearman/regression" -> Association.spearman(f, yr),
      "spearman/tied" -> Association.spearman(tied, yb),
    ).view.mapValues(bits).toMap
    assert(got == goldenAssociation,
      got.toSeq.sorted.map { case (k, v) => f"\"$k\" -> 0x$v%016xL" }.mkString("\n"))
  }

  private val goldenQueries: Map[String, Set[String]] = Map(
    "LR" -> Set(
      "AVG(amt)||uid",
      "AVG(t)|t::1.0:|uid",
      "MAX(amt)|cat:B::&t::1.0:1.0|uid",
      "MAX(amt)|cat:B::&t:::1.0|uid",
      "MAX(amt)|cat:C::&t:::1.0|uid",
      "MAX(amt)|t::1.0:6.0|uid",
      "MAX(amt)|t::6.0:8.0|uid",
      "MIN(amt)|cat:B::|uid",
      "MIN(t)|cat:A::|uid",
    ),
    "XGB" -> Set(
      "AVG(amt)|cat:B::|uid",
      "AVG(amt)||uid",
      "AVG(t)|cat:D::&t::6.0:|uid",
      "AVG(t)|t::1.0:|uid",
      "MAX(amt)|t::1.0:6.0|uid",
      "MIN(amt)|cat:B::|uid",
      "MIN(t)|t::1.0:6.0|uid",
      "SUM(t)|cat:D::&t:::5.0|uid",
      "SUM(t)|t::5.0:6.0|uid",
    ),
    "RF" -> Set(
      "AVG(amt)|t::1.0:5.0|uid",
      "AVG(t)|t::1.0:|uid",
      "COUNT(t)|t::1.0:|uid",
      "MAX(amt)|cat:B::&t:::1.0|uid",
      "MIN(amt)|cat:B::|uid",
      "MIN(t)|cat:A::|uid",
      "SUM(t)|cat:D::&t:::5.0|uid",
      "SUM(t)|cat:D::|uid",
      "SUM(t)|t::5.0:6.0|uid",
    ),
    "DeepFM" -> Set(
      "AVG(amt)||uid",
      "MAX(amt)|cat:B::&t:::1.0|uid",
      "MAX(amt)|cat:C::&t:::1.0|uid",
      "MAX(amt)|t::1.0:3.0|uid",
      "MAX(amt)|t::1.0:6.0|uid",
      "MAX(amt)|t::6.0:8.0|uid",
      "MIN(amt)|cat:B::|uid",
      "SUM(t)|cat:D::|uid",
      "SUM(t)|t::5.0:6.0|uid",
    ),
  )

  for (kind <- Seq(LRModel, XGBModel, RFModel, DeepFMModel)) {
    test(s"FeatAug(Full, ${kind.name}) on MiniData selects its golden queries") {
      val ev = new Evaluator(executor, baseX, yArr, BinaryClassification, kind, split, MIProxy, seed = 7,
        featureStore = scala.collection.mutable.HashMap.empty)
      val run = FeatAug.selectQueries(Vector("cat", "t"), p => new QueryVectorCodec(template.copy(predAttrs = p), domains),
        ev, FeatAugConfig(budget = Experiments.testBudget, seed = 3))
      val got = run.queries.map(_.cacheKey).toSet
      assert(goldenQueries.get(kind.name).contains(got),
        got.toSeq.sorted.map(k => s"\"$k\"").mkString(s"\"${kind.name}\" -> Set(", ", ", ")"))
    }
  }
}
