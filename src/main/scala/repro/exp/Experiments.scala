package repro.exp

import scala.collection.immutable.ListMap
import org.apache.spark.sql.SparkSession
import repro.Memo
import repro.baselines.{AutoFeature, FeatureSelectors}
import repro.baselines.FeatureSelectors.{BackwardSel, ForwardSel}
import repro.core.{AggFunc, FeatAugConfig, SearchBudget}
import repro.data.Datasets
import repro.ml._
import repro.proxy.{LRProxy, SCProxy}

/** A rendered experiment table (the reproduction of one paper table). */
final case class ResultTable(title: String, header: Vector[String], rows: Vector[Vector[String]]) {
  def render: String = {
    val all = header +: rows
    val widths = header.indices.map(c => all.map(_(c).length).max)
    def line(r: Vector[String]) =
      r.indices.map(c => r(c).padTo(widths(c), ' ')).mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (s"== $title ==" +: line(header) +: sep +: rows.map(line)).mkString("\n")
  }
}

object Experiments {
  /** Bench-scale budget (DESIGN.md §5): proportional to the paper's
    * 200-warmup / top-50 / 40-generation / depth-4 configuration.
    */
  val benchBudget: SearchBudget = SearchBudget(
    warmupIters = 12, warmupTopK = 4, genIters = 7, qtiProxyIters = 5,
    beamWidth = 2, beamDepth = 3, nTemplates = 8, queriesPerTemplate = 5,
    maxCats = 10, numQuantiles = 7)

  /** Tiny budget for unit tests. */
  val testBudget: SearchBudget = SearchBudget(
    warmupIters = 6, warmupTopK = 3, genIters = 4, qtiProxyIters = 4,
    beamWidth = 2, beamDepth = 2, nTemplates = 3, queriesPerTemplate = 3,
    maxCats = 6, numQuantiles = 5)
}

/** Drivers reproducing each table of the paper's evaluation section.
  * Shared by the bench suites (`bench/`) and the spark-submit jobs
  * (`jobs/`). Every method run is memoized; a FeatAug run is keyed by its
  * [[FeatAugConfig]], so Tables III, VII and VIII share one FeatAug(Full, MI)
  * run per dataset and model, exactly like the paper reuses its main runs.
  */
final class Experiments(spark: SparkSession, sf: Double, val budget: SearchBudget) {
  lazy val oneToMany: Vector[Prepared] = Datasets.oneToMany(spark, sf).map(new Prepared(_, budget))
  lazy val oneToOne: Vector[Prepared] = Datasets.oneToOne(spark, sf).map(new Prepared(_, budget))

  val oneToManyModels: Vector[ModelKind] = Vector(LRModel, XGBModel, RFModel, DeepFMModel)
  val oneToOneModels: Vector[ModelKind] = Vector(LRModel, XGBModel, RFModel)

  /** FeatAug(Full) with the MI proxy; the ablations and proxy sweep vary it. */
  private val full: FeatAugConfig = FeatAugConfig(budget = budget, seed = 11)

  /** A compared method: its row label and its result on (dataset, model),
    * None where it does not apply to the task (the paper's blank cells).
    */
  private final class Method(val label: String, val result: (Prepared, ModelKind) => Option[Double])

  /** Results by (dataset, model, method key): a baseline's label or a FeatAugConfig. */
  private val runs = new Memo[(String, ModelKind, Any), Option[Double]]

  private def memo(key: Any, label: String)(run: (Prepared, ModelKind) => Option[Double]): Method =
    new Method(label, (p, mk) => runs((p.td.name, mk, key)) {
      val t0 = System.nanoTime()
      val v = run(p, mk)
      val tag = s"${p.td.name}/${mk.name}/$label"
      Console.err.println(f"[exp] $tag%-40s -> ${fmtOpt(v)}  (${(System.nanoTime() - t0) / 1e9}%.1f s)")
      v
    })

  private def baseline(label: String)(run: (Prepared, ModelKind) => Double): Method =
    memo(label, label)((p, mk) => Some(run(p, mk)))

  /** FeatAug under `config`, listed as `label`. */
  private def featAug(label: String, config: FeatAugConfig): Method =
    memo(config, label)((p, mk) => Some(p.runFeatAug(mk, config)._1))

  private def selectors(sels: Vector[FeatureSelectors.Selector]): Vector[Method] =
    sels.map(sel => memo(sel.name, sel.name)(_.runFTSelector(_, sel)))

  private val ft = baseline("FT")(_.runFT(_))
  private val random = baseline("Random")(_.runRandom(_))

  private def fmtOpt(v: Option[Double]): String = v.fold("-")(x => f"$x%.4f")

  /** One row per (model, method): the model, the method's label, then one
    * cell per dataset.
    */
  private def methodTable(title: String, ps: Vector[Prepared], models: Vector[ModelKind],
                          column: String, methods: Vector[Method]): ResultTable = ResultTable(
    title,
    Vector("Model", column) ++ ps.map(_.td.name),
    for (mk <- models; m <- methods) yield Vector(mk.name, m.label) ++ ps.map(p => fmtOpt(m.result(p, mk))))

  /** A dataset's relevant-table rows and its train/valid/test sizes. */
  private def statCells(p: Prepared): Vector[String] =
    Vector(p.td.relevant.count().toString, s"${p.split.train.length}/${p.split.valid.length}/${p.split.test.length}")

  /** A dataset's template: |F|, # of A, # of predicate attributes, keys, # of templates. */
  private def templateCells(p: Prepared): Vector[String] =
    Vector(AggFunc.all.size.toString, p.td.aggAttrs.size.toString, p.td.predAttrs.size.toString,
      p.td.keys.mkString("+"), s"2^${p.td.predAttrs.size}")

  /** Table I: one-to-many dataset statistics. */
  def tableI: ResultTable = ResultTable(
    "Table I: datasets (one-to-many; synthetic lite-scale, see DESIGN.md §3)",
    Vector("Dataset", "# of Tables", "# of rows in R", "# of Train/Valid/Test"),
    oneToMany.map(p => Vector(p.td.name, "2") ++ statCells(p)))

  /** Table II: query template configuration per dataset. */
  def tableII: ResultTable = ResultTable(
    "Table II: query templates (one-to-many)",
    Vector("Dataset", "|F|", "# of A", "# of attr", "K", "# of T"),
    oneToMany.map(p => p.td.name +: templateCells(p)))

  /** Table IV+V: single-table / one-to-one dataset + template statistics. */
  def tableIVV: ResultTable = ResultTable(
    "Table IV+V: Covtype/Household datasets and templates",
    Vector("Dataset", "# of rows in R", "Train/Valid/Test", "|F|", "# of A", "# of attr", "K", "# of T"),
    oneToOne.map(p => (p.td.name +: statCells(p)) ++ templateCells(p)))

  /** Table III: main one-to-many comparison (4 datasets x 4 models x 10 methods). */
  def tableIII: ResultTable = methodTable(
    "Table III: one-to-many results (AUC up for Tmall/Instacart/Student, RMSE down for Merchant)",
    oneToMany, oneToManyModels, "Method",
    ft +: selectors(FeatureSelectors.all) :+ random :+ featAug("FeatAug", full))

  /** Table VI: single-table / one-to-one comparison (F1 up). The paper
    * leaves the forward/backward selector cells blank.
    */
  def tableVI: ResultTable = methodTable(
    "Table VI: single-table / one-to-one results (macro F1 up)",
    oneToOne, oneToOneModels, "Method",
    (ft +: selectors(FeatureSelectors.all.filterNot(Set(ForwardSel, BackwardSel)))) ++ Vector(
      baseline("ARDA")(_.runARDA(_)),
      baseline("AutoFeat-MAB")(_.runAutoFeature(_, AutoFeature.MAB)),
      baseline("AutoFeat-DQN")(_.runAutoFeature(_, AutoFeature.DQN)),
      random, featAug("FeatAug", full)))

  /** Table VII: ablation (NoQTI / NoWU / Full). */
  def tableVII: ResultTable = methodTable(
    "Table VII: ablation of QTI and warm-up",
    oneToMany, oneToManyModels, "Variant",
    Vector(
      featAug("FeatAug(NoQTI)", full.copy(useQTI = false)),
      featAug("FeatAug(NoWU)", full.copy(useWarmup = false)),
      featAug("FeatAug(Full)", full)))

  /** Table VIII: low-cost proxy sweep (SC / MI / LR). */
  def tableVIII: ResultTable = {
    val proxies = Vector(
      featAug("SC", full.copy(proxy = SCProxy)), featAug("MI", full), featAug("LR", full.copy(proxy = LRProxy)))
    ResultTable(
      "Table VIII: FeatAug by low-cost proxy",
      Vector("Dataset", "Metric") ++ (for (mk <- oneToManyModels; m <- proxies) yield s"${mk.name}-${m.label}"),
      oneToMany.map { p =>
        val metricName = p.td.task match {
          case Regression => "RMSE v"; case _ => "AUC ^"
        }
        Vector(p.td.name, metricName) ++ (for (mk <- oneToManyModels; m <- proxies) yield fmtOpt(m.result(p, mk)))
      })
  }

  /** The tables by paper id, in paper order; each is built when called. */
  private val tables: ListMap[String, () => ResultTable] = ListMap(
    "I" -> (() => tableI), "II" -> (() => tableII), "III" -> (() => tableIII), "IV" -> (() => tableIVV),
    "VI" -> (() => tableVI), "VII" -> (() => tableVII), "VIII" -> (() => tableVIII))

  /** Every table id, in paper order. */
  def tableIds: Vector[String] = tables.keys.toVector

  /** The table with paper id `id` (IV also holds Table V). */
  def table(id: String): ResultTable =
    tables.getOrElse(id, throw new IllegalArgumentException(
      s"unknown table id '$id'; valid ids: ${tableIds.mkString(", ")}"))()
}
