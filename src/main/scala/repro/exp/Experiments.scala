package repro.exp

import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import repro.baselines.{AutoFeature, FeatureSelectors}
import repro.core.{FeatAugConfig, SearchBudget}
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
    beamWidth = 2, beamDepth = 3, nTemplates = 8, queriesPerTemplate = 5)

  /** Tiny budget for unit tests. */
  val testBudget: SearchBudget = SearchBudget(
    warmupIters = 6, warmupTopK = 3, genIters = 4, qtiProxyIters = 4,
    beamWidth = 2, beamDepth = 2, nTemplates = 3, queriesPerTemplate = 3,
    maxCats = 6, numQuantiles = 5)
}

/** Drivers reproducing each table of the paper's evaluation section.
  * Shared by the bench suites (`bench/`) and the spark-submit jobs
  * (`jobs/`). FeatAug(Full, MI) runs are cached and reused across
  * Tables III, VII and VIII, exactly like the paper reuses its main runs.
  */
final class Experiments(spark: SparkSession, sf: Double, val budget: SearchBudget) {
  // Small aggregate results at this scale: fewer shuffle partitions keep
  // per-query latency low in local mode (runtime conf, AQE-compatible).
  spark.conf.set("spark.sql.shuffle.partitions", "4")

  lazy val oneToMany: Vector[Prepared] = Datasets.oneToMany(spark, sf).map(new Prepared(_, budget))
  lazy val oneToOne: Vector[Prepared] = Datasets.oneToOne(spark, sf).map(new Prepared(_, budget))

  val oneToManyModels: Vector[ModelKind] = Vector(LRModel, XGBModel, RFModel, DeepFMModel)
  val oneToOneModels: Vector[ModelKind] = Vector(LRModel, XGBModel, RFModel)

  private val cache = mutable.HashMap.empty[(String, String, String), Double]

  private def cached(p: Prepared, mk: ModelKind, variant: String)(body: => Double): Double =
    cache.getOrElseUpdate((p.td.name, mk.name, variant), timed(s"${p.td.name}/${mk.name}/$variant")(body))

  private def timed(tag: String)(body: => Double): Double = {
    val t0 = System.nanoTime()
    val v = body
    Console.err.println(f"[exp] $tag%-40s -> $v%.4f  (${(System.nanoTime() - t0) / 1e9}%.1f s)")
    v
  }

  def featAug(p: Prepared, mk: ModelKind, variant: String): Double = {
    val cfg = variant match {
      case "Full"  => FeatAugConfig(budget = budget, seed = 11)
      case "NoQTI" => FeatAugConfig(useQTI = false, budget = budget, seed = 11)
      case "NoWU"  => FeatAugConfig(useWarmup = false, budget = budget, seed = 11)
      case "SC"    => FeatAugConfig(proxy = SCProxy, budget = budget, seed = 11)
      case "LRpx"  => FeatAugConfig(proxy = LRProxy, budget = budget, seed = 11)
      case other   => throw new IllegalArgumentException(s"unknown variant $other")
    }
    cached(p, mk, s"FeatAug-$variant")(Methods.runFeatAug(p, mk, cfg)._1)
  }

  private def fmt(v: Double): String = f"$v%.4f"
  private def fmtOpt(v: Option[Double]): String = v.map(fmt).getOrElse("-")

  /** Table I: one-to-many dataset statistics. */
  def tableI: ResultTable = ResultTable(
    "Table I: datasets (one-to-many; synthetic lite-scale, see DESIGN.md §3)",
    Vector("Dataset", "# of Tables", "# of rows in R", "# of Train/Valid/Test"),
    oneToMany.map { p =>
      Vector(p.td.name, "2", p.td.relevant.count().toString,
        s"${p.split.train.length}/${p.split.valid.length}/${p.split.test.length}")
    })

  /** Table II: query template configuration per dataset. */
  def tableII: ResultTable = templateTable("Table II: query templates (one-to-many)", oneToMany)

  /** Table IV+V: single-table / one-to-one dataset + template statistics. */
  def tableIVV: ResultTable = ResultTable(
    "Table IV+V: Covtype/Household datasets and templates",
    Vector("Dataset", "# of rows in R", "Train/Valid/Test", "|F|", "# of A", "# of attr", "K", "# of T"),
    oneToOne.map { p =>
      Vector(p.td.name, p.td.relevant.count().toString,
        s"${p.split.train.length}/${p.split.valid.length}/${p.split.test.length}",
        p.td.aggFuncs.size.toString, p.td.aggAttrs.size.toString, p.td.predAttrs.size.toString,
        p.td.keys.mkString("+"), s"2^${p.td.predAttrs.size}")
    })

  private def templateTable(title: String, ps: Vector[Prepared]): ResultTable = ResultTable(
    title,
    Vector("Dataset", "|F|", "# of A", "# of attr", "K", "# of T"),
    ps.map { p =>
      Vector(p.td.name, p.td.aggFuncs.size.toString, p.td.aggAttrs.size.toString,
        p.td.predAttrs.size.toString, p.td.keys.mkString("+"), s"2^${p.td.predAttrs.size}")
    })

  /** Table III: main one-to-many comparison (4 datasets x 4 models x 10 methods). */
  def tableIII: ResultTable = {
    val methods: Vector[(String, (Prepared, ModelKind) => Option[String])] =
      Vector[(String, (Prepared, ModelKind) => Option[String])](
        ("FT", (p, mk) => Some(fmt(cached(p, mk, "FT")(Methods.runFT(p, mk))))),
      ) ++ FeatureSelectors.all.map { sel =>
        (sel.name, (p: Prepared, mk: ModelKind) =>
          Some(fmtOpt(if (!FeatureSelectors.supports(sel, p.td.task)) None
          else Some(cached(p, mk, sel.name)(Methods.runFTSelector(p, mk, sel).get)))))
      } ++ Vector[(String, (Prepared, ModelKind) => Option[String])](
        ("Random", (p, mk) => Some(fmt(cached(p, mk, "Random")(Methods.runRandom(p, mk))))),
        ("FeatAug", (p, mk) => Some(fmt(featAug(p, mk, "Full")))),
      )
    ResultTable(
      "Table III: one-to-many results (AUC up for Tmall/Instacart/Student, RMSE down for Merchant)",
      Vector("Model", "Method") ++ oneToMany.map(_.td.name),
      for {
        mk <- oneToManyModels
        (name, f) <- methods
      } yield Vector(mk.name, name) ++ oneToMany.map(p => f(p, mk).getOrElse("-")))
  }

  /** Table VI: single-table / one-to-one comparison (F1 up). */
  def tableVI: ResultTable = {
    val selectors = FeatureSelectors.all.filterNot(s =>
      s == FeatureSelectors.ForwardSel || s == FeatureSelectors.BackwardSel) // paper: blank cells
    val rows = for {
      mk <- oneToOneModels
      row <- {
        val ft = Vector(("FT", (p: Prepared) => Some(cached(p, mk, "FT")(Methods.runFT(p, mk)))))
        val sels = selectors.map(sel => (sel.name, (p: Prepared) =>
          if (!FeatureSelectors.supports(sel, p.td.task)) None
          else Some(cached(p, mk, sel.name)(Methods.runFTSelector(p, mk, sel).get))))
        val extra = Vector(
          ("ARDA", (p: Prepared) => Some(cached(p, mk, "ARDA")(Methods.runARDA(p, mk)))),
          ("AutoFeat-MAB", (p: Prepared) =>
            Some(cached(p, mk, "MAB")(Methods.runAutoFeature(p, mk, AutoFeature.MAB)))),
          ("AutoFeat-DQN", (p: Prepared) =>
            Some(cached(p, mk, "DQN")(Methods.runAutoFeature(p, mk, AutoFeature.DQN)))),
          ("Random", (p: Prepared) => Some(cached(p, mk, "Random")(Methods.runRandom(p, mk)))),
          ("FeatAug", (p: Prepared) => Some(featAug(p, mk, "Full"))),
        )
        (ft ++ sels ++ extra).map { case (name, f) =>
          Vector(mk.name, name) ++ oneToOne.map(p => fmtOpt(f(p)))
        }
      }
    } yield row
    ResultTable("Table VI: single-table / one-to-one results (macro F1 up)",
      Vector("Model", "Method") ++ oneToOne.map(_.td.name), rows)
  }

  /** Table VII: ablation (NoQTI / NoWU / Full). */
  def tableVII: ResultTable = ResultTable(
    "Table VII: ablation of QTI and warm-up",
    Vector("Model", "Variant") ++ oneToMany.map(_.td.name),
    for {
      mk <- oneToManyModels
      variant <- Vector("NoQTI", "NoWU", "Full")
    } yield Vector(mk.name, s"FeatAug($variant)") ++ oneToMany.map(p => fmt(featAug(p, mk, variant))))

  /** Table VIII: low-cost proxy sweep (SC / MI / LR). */
  def tableVIII: ResultTable = ResultTable(
    "Table VIII: FeatAug by low-cost proxy",
    Vector("Dataset", "Metric") ++ (for (mk <- oneToManyModels; px <- Vector("SC", "MI", "LR")) yield s"${mk.name}-$px"),
    oneToMany.map { p =>
      val metricName = p.td.task match {
        case Regression => "RMSE v"; case _ => "AUC ^"
      }
      Vector(p.td.name, metricName) ++ (for {
        mk <- oneToManyModels
        variant <- Vector("SC", "Full", "LRpx")
      } yield fmt(featAug(p, mk, variant)))
    })
}
