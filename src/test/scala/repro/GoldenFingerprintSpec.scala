package repro

import scala.util.Random
import repro.baselines.{ARDA, AutoFeature, CandidatePool, FeatureSelectors}
import repro.core._
import repro.exp.Experiments
import repro.ml._
import repro.proxy.{Association, MIProxy}

/** Raw-bit fingerprints of the ML and search layers, recorded once: every
  * score of each downstream model on a fixed seeded matrix, the association
  * scores on fixed columns, the queries FeatAug(Full) selects on
  * [[MiniData]], and what each baseline selects from a seeded candidate
  * pool. A change that moves any bit of any of them fails here.
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

  // 1,200 rows of 11 features, shaped like Tmall's final fit: seven Gaussian
  // columns, a Cauchy and a log-normal column, and two columns that are
  // non-zero on about 0.3 % of rows. Every DeepFM fit below goes NaN on its
  // first attempt (binary in epoch 2, regression in epoch 1) and is refit at
  // a smaller rate: once for binary, two or three times for regression.
  private val heavyX = {
    val rnd = new Random(2027)
    Array.fill(1200) {
      Array.fill(7)(rnd.nextGaussian()) ++ Array(rnd.nextGaussian() / rnd.nextGaussian(),
        math.exp(2.5 * rnd.nextGaussian()),
        if (rnd.nextDouble() < 0.003) 1.0 + rnd.nextDouble() else 0.0,
        if (rnd.nextDouble() < 0.003) 50 * rnd.nextGaussian() else 0.0)
    }
  }
  private val heavyLatent = {
    val rnd = new Random(2028)
    heavyX.map(r => r(0) - 0.5 * r(1) * r(2) + 0.3 * r(3) + 0.1 * math.tanh(r(7)) + rnd.nextGaussian() * 0.5)
  }

  private val goldenDiverging: Map[String, Long] = Map(
    "DeepFM/binary/fast=false" -> 0xcc425f01bafcd11dL,
    "DeepFM/binary/fast=true" -> 0xefaa3f0a97eaab86L,
    "DeepFM/regression/fast=false" -> 0xa3a6d5ecbaaa8f08L,
    "DeepFM/regression/fast=true" -> 0x6584f6fe697afe41L,
  )

  for (label <- Seq("binary", "regression"); fast <- Seq(false, true)) {
    val name = s"DeepFM/$label/fast=$fast"
    test(s"$name on heavy-tailed rows: the refit after a diverged first attempt matches its golden fingerprint") {
      val (task, y) =
        if (label == "binary") (BinaryClassification, heavyLatent.map(s => if (s > 0) 1.0 else 0.0))
        else (Regression, heavyLatent)
      val pred = Models.trainer(DeepFMModel, task, seed = 7L, fast = fast).fit(DenseData(heavyX, y))
      val got = fingerprint(pred.scoresAll(heavyX))
      assert(goldenDiverging.get(name).contains(got), f"$name fingerprint 0x$got%016xL")
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

  /** A seeded pool of 48 candidates over 200 rows: a signal, a weak signal,
    * an exact copy of it (every score ties), a constant, a few-valued column
    * and 43 noise columns, so the MI trim of Forward/Backward drops four.
    */
  private def selectionPool(task: Task): CandidatePool = {
    val rnd = new Random(2025)
    val latent = Array.fill(200)(rnd.nextGaussian())
    val y = if (task == Regression) latent else latent.map(s => if (s > 0) 1.0 else 0.0)
    val base = Array.fill(200)(Array(rnd.nextGaussian()))
    val weak = latent.map(_ + rnd.nextGaussian() * 2.0)
    val columns = Vector(latent.map(_ * 2 + rnd.nextGaussian() * 0.3), weak, weak.clone(),
      Array.fill(200)(1.0), latent.map(s => math.rint(s + rnd.nextGaussian()))) ++
      Vector.fill(43)(Array.fill(200)(rnd.nextGaussian()))
    val split = Splits.threeWay(200, 5L)
    CandidatePool(base, columns, y, task, split.train, split.valid)
  }

  private val goldenSelections: Map[String, Vector[Int]] = Map(
    "FT+LR/BinaryClassification" -> Vector(0, 4, 23, 38, 2, 1),
    "FT+GDBT/BinaryClassification" -> Vector(0, 5, 11, 2, 1, 8),
    "FT+MI/BinaryClassification" -> Vector(0, 4, 1, 2, 13, 44),
    "FT+Chi2/BinaryClassification" -> Vector(0, 4, 1, 2, 44, 13),
    "FT+Gini/BinaryClassification" -> Vector(0, 4, 1, 2, 44, 13),
    "FT+Forward/BinaryClassification" -> Vector(0, 4, 46, 32, 34, 35),
    "FT+Backward/BinaryClassification" -> Vector(0, 37, 38, 18, 28, 41),
    "FT+LR/Regression" -> Vector(0, 4, 21, 11, 20, 25),
    "FT+GDBT/Regression" -> Vector(0, 13, 23, 6, 8, 15),
    "FT+MI/Regression" -> Vector(0, 4, 1, 2, 35, 5),
    "FT+Forward/Regression" -> Vector(0, 4, 6, 20, 11, 24),
    "FT+Backward/Regression" -> Vector(0, 13, 30, 20, 11, 24),
    "ARDA/BinaryClassification" -> Vector(0, 4, 11, 1, 17, 27),
    "ARDA/Regression" -> Vector(0, 1, 33, 2, 4, 15),
    "AutoFeat-MAB/BinaryClassification" -> Vector(0, 4, 18, 28, 6),
    "AutoFeat-DQN/BinaryClassification" -> Vector(0, 10),
  )

  test("the selectors, ARDA and AutoFeature make their golden selections") {
    import FeatureSelectors._
    val got = (for {
      task <- Seq(BinaryClassification, Regression)
      sel <- FeatureSelectors.all
      if supports(sel, task)
    } yield s"${sel.name}/$task" -> select(sel, selectionPool(task), LRModel, k = 6)) ++
      Seq(BinaryClassification, Regression).map { task =>
        s"ARDA/$task" -> ARDA.select(selectionPool(task), k = 6, seed = 3L)
      } ++
      Seq(AutoFeature.MAB, AutoFeature.DQN).map { agent =>
        s"${agent.name}/$BinaryClassification" ->
          AutoFeature.select(agent, selectionPool(BinaryClassification), LRModel, k = 6, seed = 4L)
      }
    assert(got.toMap == goldenSelections,
      got.map { case (k, v) => s"\"$k\" -> Vector(${v.mkString(", ")}),"}.mkString("\n"))
  }
}
