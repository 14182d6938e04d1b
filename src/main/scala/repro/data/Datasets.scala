package repro.data

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.ml.{BinaryClassification, MultiClassification, Regression, Task}

/** One reproduction dataset: the training table, the relevant table, and
  * the query-template ingredients of paper Table II / V. Every dataset's
  * templates aggregate with all of `AggFunc.all`.
  */
final case class TaskDef(
    name: String,
    train: DataFrame,
    relevant: DataFrame,
    keys: Vector[String],
    baseFeatures: Vector[String],
    label: String,
    task: Task,
    aggAttrs: Vector[String],
    predAttrs: Vector[String],
) {
  /** Relevant-table numeric columns joinable directly (ARDA/AutoFeature
    * candidates in the one-to-one scenario).
    */
  def directJoinAttrs: Vector[String] =
    relevant.schema.fields.collect {
      case f if f.dataType.isInstanceOf[NumericType] && !keys.contains(f.name) => f.name
    }.toVector
}

/** Synthetic stand-ins for the paper's six datasets (DESIGN.md Section 3).
  *
  * Every generator is deterministic in (sf, seed). Binary labels and
  * regression targets are planted behind a *predicate-dependent* aggregate
  * of the relevant table (a category filter and/or recency window), so
  * predicate-aware queries genuinely carry more signal than whole-history
  * aggregates — the behaviour the paper's tables measure. Scale factors:
  * SF=0.01 for unit tests, SF=0.1 for benchmarks. Every `spark.range` has 4
  * partitions: `rand(seed)` is seeded per partition, so a count taken from
  * `defaultParallelism` would make the data depend on the core count. For
  * the same reason every generator shuffles into 4 partitions, whatever the
  * session's setting: the order of the rows, which the columnar executor
  * replays, then depends on (sf, seed) only.
  */
object Datasets {

  /** Runs `gen` with 4 shuffle partitions, then restores the session's
    * value; the frames a generator returns are cached, which fixes their plans.
    */
  private def fourShufflePartitions(spark: SparkSession)(gen: => TaskDef): TaskDef = {
    val caller = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", "4")
    try gen finally spark.conf.set("spark.sql.shuffle.partitions", caller)
  }

  private def rows(base: Long, sf: Double, floor: Int): Long =
    math.max(floor.toLong, (base * sf).toLong)

  /** Standardize `c` over the whole frame (population mean/std). */
  private def zscore(df: DataFrame, c: String): DataFrame = {
    val row = df.agg(avg(col(c)).as("m"), stddev_pop(col(c)).as("s")).collect()(0)
    val m = row.getDouble(0)
    val s = math.max(1e-9, row.getDouble(1))
    df.withColumn(c, (col(c) - lit(m)) / lit(s))
  }

  /** `base` with column `name` = `target`, an expression of the z-scored
    * planted signal `sig` (`sigs` left-joined on `keys`, 0 where absent).
    */
  private def planted(base: DataFrame, sigs: DataFrame, keys: Seq[String], name: String, target: Column): DataFrame = {
    val joined = base.join(sigs, keys, "left").na.fill(0.0, Seq("sig"))
    zscore(joined, "sig").withColumn(name, target).drop("sig").repartition(4).cache()
  }

  /** The binary label: the z-scored signal plus Gaussian noise, above 0. */
  private def noisyThreshold(seed: Long): Column =
    (col("sig") * 0.9 + randn(seed) * 0.45 > 0).cast(IntegerType)

  /** `scored` with `score` replaced by its quartile, 0..3, as `label`. */
  private def quartileLabel(scored: DataFrame): DataFrame =
    scored
      .withColumn("label", (ntile(4).over(Window.orderBy("score")) - 1).cast(IntegerType))
      .drop("score")
      .repartition(4).cache()

  /** Tmall-lite — repeat-buyer prediction; keys (user_id, merchant_id).
    * Signal: spend on 'purchase' actions in the last ~quarter of the year
    * at that merchant.
    */
  def tmallLite(spark: SparkSession, sf: Double, seed: Long = 100L): TaskDef = fourShufflePartitions(spark) {
    val nTrain = rows(20000, sf, 240)
    val nLogs = rows(600000, sf, 4000)
    val nMerchant = 40

    val base = spark.range(1, nTrain + 1, 1, 4).select(
      col("id").as("user_id"),
      (rand(seed + 10) * nMerchant + 1).cast(LongType).as("merchant_id"),
      (rand(seed + 11) * 8 + 1).cast(IntegerType).as("age_range"),
      (rand(seed + 12) * 2).cast(IntegerType).as("gender"),
    ).repartition(4).cache()

    // Users' logs cluster at their own training-pair merchant (~45%) so the
    // composite (user, merchant) key carries enough qualifying rows for a
    // learnable signal even at small SF.
    val logsRaw = spark.range(0, nLogs, 1, 4).select(
      (rand(seed) * nTrain + 1).cast(LongType).as("user_id"),
      (rand(seed + 1) * nMerchant + 1).cast(LongType).as("rand_merchant"),
      rand(seed + 14).as("align_r"),
      (rand(seed + 2) * 1000 + 1).cast(IntegerType).as("item_id"),
      concat(lit("c"), (rand(seed + 3) * 12).cast(IntegerType)).as("cat_id"),
      (rand(seed + 4) * 200 + 1).cast(IntegerType).as("brand_id"),
      when(rand(seed + 5) < 0.55, "click")
        .when(rand(seed + 5) < 0.72, "cart")
        .when(rand(seed + 5) < 0.90, "purchase")
        .otherwise("favorite").as("action_type"),
      (rand(seed + 6) * 366).cast(IntegerType).as("time_stamp"),
      round(rand(seed + 7) * 100 + 1, 2).as("item_price"),
      (rand(seed + 8) * 4 + 1).cast(IntegerType).as("quantity"),
      round(rand(seed + 9) * 0.3, 2).as("discount"),
    )
    val logs = logsRaw
      .join(base.select(col("user_id"), col("merchant_id").as("own_merchant")), Seq("user_id"))
      .withColumn("merchant_id",
        when(col("align_r") < 0.45, col("own_merchant")).otherwise(col("rand_merchant")))
      .select("user_id", "merchant_id", "item_id", "cat_id", "brand_id",
        "action_type", "time_stamp", "item_price", "quantity", "discount")
      .repartition(4).cache()

    val sig = logs
      .filter(col("action_type") === "purchase" && col("time_stamp") >= 180)
      .groupBy("user_id", "merchant_id")
      .agg(sum("item_price").as("sig"))
    val train = planted(base, sig, Seq("user_id", "merchant_id"), "label", noisyThreshold(seed + 13))

    TaskDef("Tmall", train, logs, Vector("user_id", "merchant_id"),
      Vector("age_range", "gender"), "label", BinaryClassification,
      aggAttrs = Vector("item_price", "quantity", "discount", "time_stamp", "item_id", "brand_id"),
      predAttrs = Vector("action_type", "time_stamp", "cat_id", "brand_id", "item_id"))
  }

  /** Instacart-lite — will-buy prediction; key user_id. Signal: reorders
    * within one department.
    */
  def instacartLite(spark: SparkSession, sf: Double, seed: Long = 200L): TaskDef = fourShufflePartitions(spark) {
    val nTrain = rows(20000, sf, 240)
    val nLines = rows(600000, sf, 4000)
    val lines = spark.range(0, nLines, 1, 4).select(
      (rand(seed) * nTrain + 1).cast(LongType).as("user_id"),
      (rand(seed + 1) * 800 + 1).cast(IntegerType).as("product_id"),
      concat(lit("dep"), (rand(seed + 2) * 10).cast(IntegerType)).as("department"),
      (rand(seed + 3) < 0.55).cast(IntegerType).as("reordered"),
      (rand(seed + 4) * 7).cast(IntegerType).as("order_dow"),
      (rand(seed + 5) * 24).cast(IntegerType).as("order_hour"),
      (rand(seed + 6) * 31).cast(IntegerType).as("days_since_prior"),
      concat(lit("a"), (rand(seed + 7) * 20).cast(IntegerType)).as("aisle"),
      round(rand(seed + 8) * 20 + 0.5, 2).as("price"),
    ).repartition(4).cache()

    val base = spark.range(1, nTrain + 1, 1, 4).select(
      col("id").as("user_id"),
      (rand(seed + 10) * 60 + 1).cast(IntegerType).as("total_orders"),
      (rand(seed + 11) * 30 + 1).cast(IntegerType).as("avg_days_between"),
    )
    val sig = lines
      .filter(col("department") === "dep3" && col("reordered") === 1)
      .groupBy("user_id")
      .agg(count(lit(1)).cast(DoubleType).as("sig"))
    val train = planted(base, sig, Seq("user_id"), "label", noisyThreshold(seed + 12))

    TaskDef("Instacart", train, lines, Vector("user_id"),
      Vector("total_orders", "avg_days_between"), "label", BinaryClassification,
      aggAttrs = Vector("price", "days_since_prior", "order_hour", "order_dow", "reordered", "product_id"),
      predAttrs = Vector("department", "reordered", "order_dow", "order_hour",
        "days_since_prior", "aisle", "product_id", "price"))
  }

  /** Student-lite — answer-correctness prediction from game-play events;
    * key session_id. Signal: hover time at high levels.
    */
  def studentLite(spark: SparkSession, sf: Double, seed: Long = 300L): TaskDef = fourShufflePartitions(spark) {
    val nTrain = rows(15000, sf, 200)
    val nEvents = rows(500000, sf, 4000)
    val events = spark.range(0, nEvents, 1, 4).select(
      (rand(seed) * nTrain + 1).cast(LongType).as("session_id"),
      element_at(
        array(lit("navigate"), lit("click"), lit("hover"), lit("checkpoint"),
          lit("map"), lit("notebook"), lit("cutscene"), lit("object")),
        (rand(seed + 1) * 8 + 1).cast(IntegerType)).as("event_name"),
      (rand(seed + 2) * 23).cast(IntegerType).as("level"),
      concat(lit("room"), (rand(seed + 3) * 6).cast(IntegerType)).as("room"),
      round(rand(seed + 4) * 1000, 2).as("elapsed_time"),
      round(rand(seed + 5) * 50, 2).as("hover_duration"),
      (rand(seed + 6) * 11).cast(IntegerType).as("page"),
      round(rand(seed + 7) * 800, 1).as("coor_x"),
      round(rand(seed + 8) * 600, 1).as("coor_y"),
      (rand(seed + 9) * 2).cast(IntegerType).as("music"),
      (rand(seed + 14) * 100).cast(IntegerType).as("clicks"),
    ).repartition(4).cache()

    val base = spark.range(1, nTrain + 1, 1, 4).select(
      col("id").as("session_id"),
      (rand(seed + 10) * 12 + 1).cast(IntegerType).as("grade_level"),
      round(rand(seed + 11) * 100, 1).as("prior_score"),
    )
    val sig = events
      .filter(col("event_name") === "hover" && col("level") >= 15)
      .groupBy("session_id")
      .agg(sum("hover_duration").as("sig"))
    val train = planted(base, sig, Seq("session_id"), "label", noisyThreshold(seed + 12))

    TaskDef("Student", train, events, Vector("session_id"),
      Vector("grade_level", "prior_score"), "label", BinaryClassification,
      aggAttrs = Vector("elapsed_time", "hover_duration", "level", "page",
        "coor_x", "coor_y", "music", "clicks"),
      predAttrs = Vector("event_name", "level", "room", "page", "music",
        "coor_x", "coor_y", "hover_duration", "elapsed_time", "clicks"))
  }

  /** Merchant-lite — regression on future loyalty; key merchant_id.
    * Signal: recent average spend within one category.
    */
  def merchantLite(spark: SparkSession, sf: Double, seed: Long = 400L): TaskDef = fourShufflePartitions(spark) {
    val nTrain = rows(20000, sf, 220)
    val nTxn = rows(450000, sf, 4000)
    val txns = spark.range(0, nTxn, 1, 4).select(
      (rand(seed) * nTrain + 1).cast(LongType).as("merchant_id"),
      round(rand(seed + 1) * 200 + 1, 2).as("purchase_amount"),
      (rand(seed + 2) * 14 - 13).cast(IntegerType).as("month_lag"),
      concat(lit("cat"), (rand(seed + 3) * 5).cast(IntegerType)).as("category"),
      (rand(seed + 4) * 7).cast(IntegerType).as("installments"),
      (rand(seed + 5) * 20 + 1).cast(IntegerType).as("state"),
      (rand(seed + 6) * 7).cast(IntegerType).as("purchase_dow"),
      (rand(seed + 7) * 24).cast(IntegerType).as("purchase_hour"),
      when(rand(seed + 8) < 0.9, "Y").otherwise("N").as("authorized"),
      (rand(seed + 9) * 30 + 1).cast(IntegerType).as("subsector"),
    ).repartition(4).cache()

    val base = spark.range(1, nTrain + 1, 1, 4).select(
      col("id").as("merchant_id"),
      (rand(seed + 10) * 50 + 1).cast(IntegerType).as("city_id"),
      (rand(seed + 11) * 60 + 1).cast(IntegerType).as("active_months"),
    )
    val sig = txns
      .filter(col("month_lag") >= -2 && col("category") === "cat2")
      .groupBy("merchant_id")
      .agg(avg("purchase_amount").as("sig"))
    val train = planted(base, sig, Seq("merchant_id"), "target", round(col("sig") * 2.5 + randn(seed + 12) * 3.2, 4))

    TaskDef("Merchant", train, txns, Vector("merchant_id"),
      Vector("city_id", "active_months"), "target", Regression,
      aggAttrs = Vector("purchase_amount", "month_lag", "installments", "state",
        "purchase_dow", "purchase_hour", "subsector"),
      predAttrs = Vector("category", "month_lag", "installments", "state",
        "purchase_dow", "purchase_hour", "authorized", "subsector", "purchase_amount"))
  }

  /** Covtype-lite — multi-class, single table used as its own relevant
    * table via the `data_index` key. The label mixes interactions and a
    * threshold gate, so predicate-masked copies of features help linear
    * models (matching the paper's one-to-one findings).
    */
  def covtypeLite(spark: SparkSession, sf: Double, seed: Long = 500L): TaskDef = fourShufflePartitions(spark) {
    val n = rows(30000, sf, 300)
    val feats = spark.range(1, n + 1, 1, 4).select(
      (col("id") :: (1 to 12).map(i =>
        round(rand(seed + i) * 2 - 1, 4).as(s"f$i")).toList): _*)
      .withColumnRenamed("id", "data_index")
    val scored = feats.withColumn("score",
      col("f1") * 0.8 + col("f2") * col("f3") * 1.6 +
        when(col("f4") > 0, col("f5")).otherwise(-col("f5")) * 1.2 +
        randn(seed + 50) * 0.35)
    val train = quartileLabel(scored)
    val relevant = train.drop("label").repartition(4).cache()

    TaskDef("Covtype", train, relevant, Vector("data_index"),
      baseFeatures = (1 to 12).map(i => s"f$i").toVector, "label", MultiClassification(4),
      aggAttrs = (1 to 12).map(i => s"f$i").toVector,
      predAttrs = (1 to 10).map(i => s"f$i").toVector)
  }

  /** Household-lite — multi-class one-to-one: the training table keeps 5
    * base features, the relevant table holds the other 20 numeric + 2
    * categorical attributes that actually drive the label.
    */
  def householdLite(spark: SparkSession, sf: Double, seed: Long = 600L): TaskDef = fourShufflePartitions(spark) {
    val n = rows(19000, sf, 250)
    val wide = spark.range(1, n + 1, 1, 4).select(
      (col("id") ::
        (1 to 5).map(i => round(rand(seed + i) * 2 - 1, 4).as(s"b$i")).toList :::
        (1 to 20).map(i => round(rand(seed + 100 + i) * 2 - 1, 4).as(s"r$i")).toList :::
        List(
          concat(lit("u"), (rand(seed + 200) * 4).cast(IntegerType)).as("c1"),
          concat(lit("w"), (rand(seed + 201) * 3).cast(IntegerType)).as("c2"),
        )): _*)
      .withColumnRenamed("id", "data_index")
    val scored = wide.withColumn("score",
      col("r1") * 1.2 + col("r2") * col("r3") * 1.5 +
        when(col("c1") === "u2", col("r4") * 1.4).otherwise(col("r5") * 0.3) +
        col("b1") * 0.3 + randn(seed + 300) * 0.35)
    val full = quartileLabel(scored)
    val train = full.select(("data_index" +: (1 to 5).map(i => s"b$i") :+ "label").map(col): _*).repartition(4).cache()
    val relevant = full.select(
      ("data_index" +: (1 to 20).map(i => s"r$i") :+ "c1" :+ "c2").map(col): _*).repartition(4).cache()

    TaskDef("Household", train, relevant, Vector("data_index"),
      baseFeatures = (1 to 5).map(i => s"b$i").toVector, "label", MultiClassification(4),
      aggAttrs = (1 to 12).map(i => s"r$i").toVector,
      predAttrs = ((1 to 8).map(i => s"r$i") ++ Seq("c1", "c2")).toVector)
  }

  /** The four one-to-many datasets of Table I / III / VII / VIII. */
  def oneToMany(spark: SparkSession, sf: Double): Vector[TaskDef] =
    Vector(tmallLite(spark, sf), instacartLite(spark, sf), studentLite(spark, sf), merchantLite(spark, sf))

  /** The two single-table / one-to-one datasets of Table IV / V / VI. */
  def oneToOne(spark: SparkSession, sf: Double): Vector[TaskDef] =
    Vector(covtypeLite(spark, sf), householdLite(spark, sf))
}
