package featbench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.{Failure, Random, Success, Try}
import scala.util.control.NonFatal
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.Datasets
import repro.exp.{Experiments, Prepared}
import repro.hpo.TPE
import repro.ml._
import repro.proxy.{Association, MIProxy}

/** The FeatAug search-loop benchmark (see featbench/README.md).
  *
  * Both workloads run FeatAug(Full, MI) once per downstream model (LR, XGB,
  * RF, DeepFM: a sweep, the Table III pattern) on Tmall-lite SF 0.1 with the
  * test budget. They differ only in the feature store the evaluators share:
  *
  *  - `tmall-cold`: a fresh store every sweep, so Spark query execution
  *    dominates; its first sweep in the JVM is timed;
  *  - `tmall-warm-sweep`: a store filled during set-up by one untimed sweep,
  *    so timed sweeps execute no query and TPE, the proxy and model fits
  *    dominate.
  *
  * The program is driven only through its public entry points, and each
  * layer is timed from outside, around the calls made into it. Untraced
  * sweeps give the end-to-end metrics; `--trace 1` adds a traced sweep and
  * prints the per-layer metrics instead.
  *
  * Usage: `--workload <name> [--seed n] [--seconds s] [--trace 0|1]
  * [--data-seed d] [--feataug-seed f]`. The program's inputs are those of
  * `Experiments`: dataset seed 100, FeatAug seed 11, split seed 42. A
  * different search path costs a different number of queries, so varying
  * them would move `run_s` by more than any bound; the last two options
  * change them to check a claim on an unseen seed. Seed n orders the
  * models in the sweep, which moves work between models but not its total,
  * and picks the rows the oracle check samples.
  */
object Main {

  final case class Workload(name: String, warm: Boolean)
  val workloads: Vector[Workload] =
    Vector(Workload("tmall-cold", warm = false), Workload("tmall-warm-sweep", warm = true))

  val Sf = 0.1
  val Budget: SearchBudget = Experiments.testBudget
  val SplitSeed = 42L
  val SweepModels: Vector[ModelKind] = Vector(LRModel, XGBModel, RFModel, DeepFMModel)
  /** Set-up is repeated and its median reported, to steady `setup_s`. */
  val SetupRepeats = 3
  /** Untimed sweeps after the warm store is filled: C2 needs several sweeps
    * to compile the model-fitting loops that dominate the warm workload.
    */
  val WarmupSweeps = 2
  /** Spark threads; dataset content is pinned separately by a fixed default parallelism. */
  val MaxThreads = 4

  final case class Options(workload: Workload, seconds: Double, trace: Boolean, dataSeed: Long, featAugSeed: Long, seed: Long)

  def parse(args: Array[String]): Options = {
    require(args.length % 2 == 0, "options come in --name value pairs")
    val kv = args.grouped(2).map(a => a(0) -> a(1)).toMap
    val known = Set("--workload", "--seed", "--seconds", "--trace", "--data-seed", "--feataug-seed")
    kv.keys.filterNot(known).foreach(k => throw new IllegalArgumentException(s"unknown option $k"))
    val name = kv.getOrElse("--workload", throw new IllegalArgumentException("--workload is required"))
    val workload = workloads.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $name; one of ${workloads.map(_.name).mkString(", ")}"))
    val trace = kv.getOrElse("--trace", "0") match {
      case "0" => false
      case "1" => true
      case other => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $other")
    }
    Options(workload, kv.get("--seconds").map(_.toDouble).getOrElse(10.0), trace,
      kv.get("--data-seed").map(_.toLong).getOrElse(100L),
      kv.get("--feataug-seed").map(_.toLong).getOrElse(11L),
      kv.get("--seed").map(_.toLong).getOrElse(0L))
  }

  def main(args: Array[String]): Unit = {
    val opts = try parse(args) catch {
      case e: IllegalArgumentException =>
        Console.err.println(s"featbench: ${e.getMessage}")
        sys.exit(2)
    }
    val threads = math.min(MaxThreads, Runtime.getRuntime.availableProcessors())
    val (spark, sessionS) = timed {
      SparkSession.builder
        .master(s"local[$threads]")
        .appName("featbench")
        // Datasets draw rand() per partition of spark.range, whose partition
        // count is the default parallelism: pin it so content does not
        // depend on the thread count.
        .config("spark.default.parallelism", "4")
        .config("spark.sql.shuffle.partitions", "4")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.driver.bindAddress", "127.0.0.1")
        .config("spark.local.dir", sys.props.getOrElse("featbench.scratch", "."))
        .config("spark.sql.warehouse.dir", sys.props.getOrElse("featbench.scratch", ".") + "/warehouse")
        .getOrCreate()
    }
    val code =
      try {
        val result = new Bench(spark, opts, threads, sessionS).run()
        println(result)
        0
      } catch {
        case NonFatal(e) =>
          e.printStackTrace()
          1
      } finally spark.stop()
    sys.exit(code)
  }

  def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val v = body
    (v, (System.nanoTime() - t0) / 1e9)
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }
}

/** One model's FeatAug run inside a sweep. */
final case class ModelRun(
    model: ModelKind,
    served: Vector[(QuerySpec, Array[Double])],
    auc: Double,
    searchNanos: Long,
    finalNanos: Long,
    counts: StoreCounts,
    realEvals: Int,
    reportedQueries: Int,
    traced: Option[TracedSearch.Result],
) {
  /** Identity of the selected query set. */
  def queryHash: Int = served.map(_._1.cacheKey).sorted.hashCode
}

/** One sweep over every model: the unit `run_s` measures. */
final case class Sweep(runs: Vector[ModelRun], wallNanos: Long) {
  def wallS: Double = wallNanos / 1e9
  def lookups: Long = runs.map(_.counts.lookups).sum
  def searchS: Double = runs.map(_.searchNanos).sum / 1e9
}

final class Bench(spark: SparkSession, opts: Main.Options, threads: Int, sessionS: Double) {
  import Main._

  private val config = FeatAugConfig(budget = Budget, seed = opts.featAugSeed)
  private val sweepOrder = new Random(opts.seed).shuffle(SweepModels)

  def run(): String = {
    val setups = (1 to SetupRepeats).map { _ =>
      spark.catalog.clearCache()
      val (td, generateS) = timed(Datasets.tmallLite(spark, Sf, opts.dataSeed))
      val (p, prepareS) = timed(new Prepared(td, Budget, SplitSeed))
      (p, generateS, prepareS)
    }
    val p = setups.last._1
    // The warm set-up ends with the sweep that fills the store. A cold sweep
    // in a fresh JVM also pays for JIT compilation, as a user's first run
    // does, so the cold workload times its first sweep instead. Either first
    // sweep is the reference every later sweep must reproduce.
    val store = new CountingStore
    val (prefill, prefillS) =
      if (opts.workload.warm) { val (s, t) = timed(sweep(p, store, traced = false)); (Some(s), t) }
      else (None, 0.0)
    val setupS = sessionS + median(setups.map(s => s._2 + s._3)) + prefillS
    val heapMb = retainedHeapMb()
    printProvenance(p)
    val warmups = if (opts.workload.warm) Vector.fill(WarmupSweeps)(Try(sweep(p, store, traced = false))) else Vector.empty

    val attempts = mutable.ArrayBuffer.empty[Try[Sweep]]
    val w0 = System.nanoTime()
    def storeFor: CountingStore = if (opts.workload.warm) store else new CountingStore
    while (attempts.isEmpty || (System.nanoTime() - w0) / 1e9 < opts.seconds)
      attempts += Try(sweep(p, storeFor, traced = false))
    // Sweeps speed up as the JIT warms, so the traced sweep is compared with
    // the mean of the untraced sweeps just before and after it.
    val (tracedAttempt, controlAttempt) =
      if (opts.trace) (Some(Try(sweep(p, storeFor, traced = true))), Some(Try(sweep(p, storeFor, traced = false))))
      else (None, None)

    val all = (warmups ++ attempts ++ tracedAttempt ++ controlAttempt).toVector
    all.collect { case Failure(e) => e }.foreach { e =>
      Console.err.println("featbench: a run failed:")
      e.printStackTrace()
    }
    val untraced = attempts.collect { case Success(s) => s }.toVector
    require(untraced.nonEmpty, "every timed sweep failed")
    val reference = prefill.getOrElse(untraced.head)
    Console.err.println("featbench: query-set hashes " +
      reference.runs.map(r => s"${r.model.name}=${r.queryHash}").mkString(" "))
    val ok = all.collect { case Success(s) => s }.filter(s => sameResult(s, reference))
    val oracleOk = Try(OracleCheck.check(p, distinctServed(reference +: ok), opts.seed)) match {
      case Success(_) => true
      case Failure(e) =>
        Console.err.println(s"featbench: oracle check failed: ${e.getMessage}")
        false
    }
    val passed = if (oracleOk) ok.size else 0
    val failed = all.size - passed

    val metrics: Vector[(String, Double, String)] = (tracedAttempt, controlAttempt) match {
      case (Some(Success(t)), Some(Success(c))) => perLayer(p, setups.map(s => (s._2, s._3)), untraced, t, c)
      case (Some(_), _) => throw new IllegalStateException("the traced or the control sweep failed")
      case _ => Vector(
        ("run_s", median(untraced.map(_.wallS)), "s"),
        ("setup_s", setupS, "s"),
        ("evals_per_s", median(untraced.map(s => s.lookups / s.searchS)), "1/s"),
        ("heap_retained_mb", heapMb, "MB"),
      ) ++ byModel(untraced.head).map(r => (s"test_auc.${r.model.name}", r.auc, "auc"))
    }
    metrics.foreach { case (n, v, u) => println(f"$n%-36s = $v%.6g $u") }
    println(s"failure_rate = ${failed.toDouble / all.size} ($failed of ${all.size} runs)")
    Json.obj(
      "correct" -> Json.bool(failed == 0),
      "attempted" -> all.size.toString,
      "failed" -> failed.toString,
      "metrics" -> Json.obj(metrics.map { case (n, v, u) =>
        n -> Json.obj("value" -> Json.num(v), "unit" -> Json.str(u))
      }: _*),
    )
  }

  /** One FeatAug(Full) run per model over the shared `store`; each run's
    * wall time covers search, final feature materialisation and the
    * test-split fit.
    */
  private def sweep(p: Prepared, store: CountingStore, traced: Boolean): Sweep = {
    val t0 = System.nanoTime()
    val runs = sweepOrder.map { mk =>
      val ev = new Evaluator(p.executor, p.baseX, p.y, p.td.task, mk, p.split, MIProxy, config.seed,
        featureStore = store)
      val before = store.snapshot
      val s0 = System.nanoTime()
      val (queries, reported, tracedResult) =
        if (traced) {
          val r = TracedSearch.select(p, ev, config)
          (r.queries, 0, Some(r))
        } else {
          val r = FeatAug.selectQueries(p.td.predAttrs, p.codec, ev, config)
          (r.queries, r.queryExecutions, None)
        }
      val searchNanos = System.nanoTime() - s0
      val counts = store.snapshot.delta(before)
      val served = queries.map(q => q -> store.getOrElseUpdate(q.cacheKey, p.executor.featureValues(q)))
      val f0 = System.nanoTime()
      val auc = p.finalMetric(mk, served.map(_._2))
      ModelRun(mk, served, auc, searchNanos, System.nanoTime() - f0, counts, ev.realEvaluations, reported, tracedResult)
    }
    val result = Sweep(runs, System.nanoTime() - t0)
    Console.err.println(f"featbench: sweep ${result.wallS}%.3f s, search ${result.searchS}%.3f s, " +
      s"${runs.map(_.counts.misses).sum} queries, ${result.lookups} evals" + (if (traced) " (traced)" else ""))
    result
  }

  /** The sweep's runs in the fixed order of [[Main.SweepModels]], for output. */
  private def byModel(s: Sweep): Vector[ModelRun] = SweepModels.map(m => s.runs.find(_.model == m).get)

  /** A sweep is correct when every model selects the reference's query set
    * with the same test metric and, on the warm workload, executes no query.
    */
  private def sameResult(s: Sweep, reference: Sweep): Boolean = {
    val problems = s.runs.zip(reference.runs).flatMap { case (r, ref) =>
      Option.when(r.queryHash != ref.queryHash)(s"${r.model.name}: query set differs from the first sweep") ++
        Option.when(r.auc.compare(ref.auc) != 0)(s"${r.model.name}: test metric ${r.auc} != ${ref.auc}") ++
        Option.when(opts.workload.warm && r.counts.misses > 0)(
          s"${r.model.name}: ${r.counts.misses} queries executed against a filled store")
    }
    problems.foreach(m => Console.err.println(s"featbench: check failed: $m"))
    problems.isEmpty
  }

  /** Every distinct (query, served column) pair, so one oracle call covers all runs. */
  private def distinctServed(sweeps: Seq[Sweep]): Vector[(QuerySpec, Array[Double])] = {
    val seen = mutable.LinkedHashMap.empty[(String, Seq[Double]), (QuerySpec, Array[Double])]
    for (s <- sweeps; r <- s.runs; (q, v) <- r.served)
      seen.getOrElseUpdate((q.cacheKey, v.toSeq), (q, v))
    seen.values.toVector
  }

  private def perLayer(p: Prepared, setupTimes: Seq[(Double, Double)], untraced: Vector[Sweep],
                       t: Sweep, control: Sweep): Vector[(String, Double, String)] = {
    val misses = t.runs.flatMap(_.counts.missNanos).map(_ / 1e6).sorted
    val (tailP, tailMs) = tail(misses)
    val counts = t.runs.map(_.counts)
    val lookups = counts.map(_.lookups).sum.toDouble
    val busyS = counts.map(_.busyNanos).sum / 1e9
    val realEvals = t.runs.map(_.realEvals).sum.toDouble
    val traces = t.runs.flatMap(_.traced)
    Console.err.println(f"featbench: ms_per_query from ${misses.size} samples; tail is p$tailP")
    val domains = (1 to 3).map(_ => timed(SearchSpace.domains(p.td.relevant, p.td.predAttrs, Budget.maxCats, Budget.numQuantiles))._2)
    Vector(
      ("data.generate_s", median(setupTimes.map(_._1)), "s"),
      ("exp.prepare_s", median(setupTimes.map(_._2)), "s"),
      ("core.domains_s", median(domains), "s"),
      ("core.executor.queries", misses.size.toDouble, "count"),
      ("core.executor.busy_s", busyS, "s"),
      ("core.executor.ms_per_query.p50", if (misses.isEmpty) 0.0 else median(misses), "ms"),
      ("core.executor.ms_per_query.tail", tailMs, "ms"),
      ("core.store.hits", counts.map(_.hits).sum.toDouble, "count"),
      ("core.store.hit_ratio", if (lookups == 0) 0.0 else counts.map(_.hits).sum / lookups, "ratio"),
      ("core.evaluator.evals", lookups, "count"),
      ("core.evaluator.real_evals", realEvals, "count"),
      ("core.evaluator.proxy_evals", lookups - realEvals, "count"),
      ("core.evaluator.reported_queries", untraced.last.runs.map(_.reportedQueries).sum.toDouble, "count"),
      ("core.qti_s", traces.map(_.qtiNanos).sum / 1e9, "s"),
      ("core.sqlgen_s", traces.map(_.sqlgenNanos).sum / 1e9, "s"),
      ("core.search_other_s", t.searchS - busyS, "s"),
    ) ++ byModel(t).map(r => (s"ml.fits.${r.model.name}", r.realEvals.toDouble, "count")) ++
      byModel(t).map(r => (s"ml.fit_ms.${r.model.name}", fitMs(p, r), "ms")) ++ Vector(
      ("ml.final_fit_s", t.runs.map(_.finalNanos).sum / 1e9, "s"),
      ("proxy.score_ms", proxyMs(p, byModel(t).head), "ms"),
      ("hpo.suggest_ms", suggestMs(p, byModel(t).head.traced.get.templates.head), "ms"),
      ("hpo.unique_ratio", lookups / traces.map(_.objectiveCalls).sum, "ratio"),
      ("trace.run_s", t.wallS, "s"),
      ("trace.overhead_s", t.wallS - (untraced.last.wallS + control.wallS) / 2, "s"),
    )
  }

  /** The highest whole percentile with at least ten samples beyond it (the
    * median when there are too few samples), by nearest rank.
    */
  private def tail(sorted: Vector[Double]): (Int, Double) = {
    if (sorted.size <= 20) (50, if (sorted.isEmpty) 0.0 else median(sorted))
    else {
      val pct = math.floor(100.0 * (1.0 - 10.0 / sorted.size)).toInt
      (pct, sorted(math.ceil(pct / 100.0 * sorted.size).toInt - 1))
    }
  }

  /** Unit cost of one fast fit, as the search makes it: base features plus
    * one of the run's selected columns.
    */
  private def fitMs(p: Prepared, r: ModelRun): Double = {
    val data = DenseData(p.baseX.indices.map(i => p.baseX(i) :+ r.served.head._2(i)).toArray, p.y)
    median((1 to 5).map { _ =>
      timed(Models.splitLoss(r.model, p.td.task, data, p.split.train, p.split.valid, config.seed, fast = true))._2 * 1e3
    })
  }

  /** Unit cost of the MI proxy on train + valid rows over the run's columns. */
  private def proxyMs(p: Prepared, r: ModelRun): Double = {
    val rows = p.split.train ++ p.split.valid
    val y = rows.map(p.y)
    median(for (_ <- 1 to 3; (_, f) <- r.served) yield
      timed(Association.mutualInformation(rows.map(f), y, p.td.task))._2 * 1e3)
  }

  /** Unit cost of `TPE.suggest` in a template's space at the history size of
    * the last generation proposal.
    */
  private def suggestMs(p: Prepared, template: Vector[String]): Double = {
    val space = p.codec(template).space
    val rnd = new Random(config.seed)
    val history = Vector.fill(Budget.warmupTopK + Budget.genIters - 1)((space.randomPoint(rnd), rnd.nextDouble()))
    val tpe = new TPE(space, config.seed)
    median((1 to 20).map(_ => timed(tpe.suggest(history, rnd))._2 * 1e3))
  }

  private def retainedHeapMb(): Double = {
    System.gc()
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  private def printProvenance(p: Prepared): Unit = {
    val fields = Vector(
      "workload" -> Json.str(opts.workload.name),
      "sf" -> Json.num(Sf),
      "budget" -> Json.str("Experiments.testBudget"),
      "seed" -> opts.seed.toString,
      "sweep_order" -> Json.str(sweepOrder.map(_.name).mkString(",")),
      "data_seed" -> opts.dataSeed.toString,
      "feataug_seed" -> opts.featAugSeed.toString,
      "split_seed" -> SplitSeed.toString,
      "spark_master" -> Json.str(spark.sparkContext.master),
      "spark_threads" -> threads.toString,
      "nproc" -> Runtime.getRuntime.availableProcessors().toString,
      "jvm_max_heap_mb" -> (Runtime.getRuntime.maxMemory / (1024 * 1024)).toString,
      "jvm_options" -> Json.str(ManagementFactory.getRuntimeMXBean.getInputArguments.asScala
        .filter(_.startsWith("-X")).mkString(" ")),
      "git_revision" -> Json.str(sys.props.getOrElse("featbench.revision", "unknown")),
      "source_sha256" -> Json.str(sys.props.getOrElse("featbench.source", "unknown")),
      "relevant_rows" -> p.td.relevant.count().toString,
      "train_rows" -> p.y.length.toString,
      "train_label_sum" -> Json.num(p.split.train.map(p.y).sum),
    )
    println(Json.obj("provenance" -> Json.obj(fields: _*)))
  }
}

/** Just enough JSON for the result lines. */
object Json {
  def str(s: String): String = "\"" + s.flatMap {
    case '"' => "\\\""
    case '\\' => "\\\\"
    case c if c < ' ' => f"\\u${c.toInt}%04x"
    case c => c.toString
  } + "\""
  def num(v: Double): String = {
    require(!v.isNaN && !v.isInfinite, s"not a JSON number: $v")
    v.toString
  }
  def bool(b: Boolean): String = b.toString
  def obj(fields: (String, String)*): String = fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
