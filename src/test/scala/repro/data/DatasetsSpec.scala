package repro.data

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.SparkSpec
import repro.core.{AggFunc, MiniData, Predicate, QuerySpec}
import repro.ml.{BinaryClassification, MultiClassification, Regression}
import repro.proxy.Association

/** Schema / determinism / planted-signal checks for all six synthetic
  * dataset substrates (DESIGN.md §3).
  */
class DatasetsSpec extends SparkSpec {

  private val sf = 0.005
  private lazy val all = Datasets.oneToMany(spark, sf) ++ Datasets.oneToOne(spark, sf)

  for (name <- Seq("Tmall", "Instacart", "Student", "Merchant", "Covtype", "Household")) {
    test(s"$name: declared attributes exist with usable types") {
      val td = byName(name)
      val relCols = td.relevant.columns.toSet
      (td.aggAttrs ++ td.predAttrs ++ td.keys).foreach(a => assert(relCols.contains(a), a))
      val trainCols = td.train.columns.toSet
      (td.baseFeatures ++ td.keys :+ td.label).foreach(c => assert(trainCols.contains(c), c))
    }
  }

  private lazy val byName = all.map(t => t.name -> t).toMap

  test("one-to-many datasets have (many) more relevant rows than training rows") {
    Datasets.oneToMany(spark, sf).foreach { td =>
      assert(td.relevant.count() > td.train.count() * 3, td.name)
    }
  }

  test("one-to-one datasets have exactly one relevant row per training row") {
    Datasets.oneToOne(spark, sf).foreach { td =>
      assert(td.relevant.count() == td.train.count(), td.name)
    }
  }

  test("keys in the training table are unique (it is a proper training table)") {
    all.foreach { td =>
      val n = td.train.count()
      assert(td.train.select(td.keys.map(org.apache.spark.sql.functions.col): _*).distinct().count() == n, td.name)
    }
  }

  test("tasks and labels are consistent") {
    assert(byName("Tmall").task == BinaryClassification)
    assert(byName("Instacart").task == BinaryClassification)
    assert(byName("Student").task == BinaryClassification)
    assert(byName("Merchant").task == Regression)
    assert(byName("Covtype").task == MultiClassification(4))
    assert(byName("Household").task == MultiClassification(4))
  }

  test("binary labels are 0/1 and not degenerate") {
    Datasets.oneToMany(spark, sf).filter(_.task == BinaryClassification).foreach { td =>
      val labels = td.train.select(td.label).collect().map(_.getInt(0))
      assert(labels.toSet.subsetOf(Set(0, 1)), td.name)
      val pos = labels.count(_ == 1).toDouble / labels.length
      assert(pos > 0.15 && pos < 0.85, s"${td.name} positive rate $pos")
    }
  }

  test("multi-class labels cover 4 roughly balanced classes") {
    Datasets.oneToOne(spark, sf).foreach { td =>
      val labels = td.train.select(td.label).collect().map(_.getInt(0))
      assert(labels.toSet == Set(0, 1, 2, 3), td.name)
    }
  }

  test("generators are deterministic in (sf, seed)") {
    val a = Datasets.tmallLite(spark, sf)
    val b = Datasets.tmallLite(spark, sf)
    val sumA = a.train.groupBy().sum("label").collect()(0).getLong(0)
    val sumB = b.train.groupBy().sum("label").collect()(0).getLong(0)
    assert(sumA == sumB)
    assert(a.relevant.count() == b.relevant.count())
  }

  /** Golden (training rows, relevant rows, label sum, sum of the first
    * aggregation attribute) at SF 0.01. Sums run on the driver in sorted
    * order, so they are exact and do not depend on how Spark merges partial
    * sums.
    */
  private val golden = Map(
    "Tmall" -> (240L, 6000L, 94.0, 307036.22999999946),
    "Instacart" -> (240L, 6000L, 110.0, 62764.940000000075),
    "Student" -> (200L, 5000L, 83.0, 2476726.8699999945),
    "Merchant" -> (220L, 4500L, 13.901599999999988, 451091.0299999999),
    "Covtype" -> (300L, 300L, 450.0, -7.520099999999944),
    "Household" -> (250L, 250L, 373.0, -1.4863999999999775),
  )
  private lazy val goldenSf = Datasets.oneToMany(spark, 0.01) ++ Datasets.oneToOne(spark, 0.01)

  for (name <- golden.keys.toSeq.sorted) {
    test(s"$name: SF 0.01 content matches its golden fingerprint") {
      val td = goldenSf.find(_.name == name).get
      def sortedSum(df: DataFrame, c: String): Double =
        df.select(col(c).cast("double")).collect().map(_.getDouble(0)).sorted.sum
      val got = (td.train.count(), td.relevant.count(), sortedSum(td.train, td.label), sortedSum(td.relevant, td.aggAttrs.head))
      assert(got == golden(name), s"$name fingerprint $got, golden ${golden(name)}")
    }
  }

  test("Tmall's labels and relevant row order do not depend on the session's shuffle partitions") {
    val key = "spark.sql.shuffle.partitions"
    val caller = spark.conf.get(key)
    // Key -> label rows and the relevant rows in collect order, generated
    // under `partitions`; uncached afterwards, so the next call plans anew.
    def generate(partitions: String): (Set[Seq[Any]], Array[Seq[Any]]) = {
      spark.conf.set(key, partitions)
      val td = Datasets.tmallLite(spark, 0.1)
      val labels = td.train.select((td.keys :+ td.label).map(col): _*).collect().map(_.toSeq).toSet
      val relevant = td.relevant.collect().map(_.toSeq)
      td.train.unpersist(blocking = true)
      td.relevant.unpersist(blocking = true)
      (labels, relevant)
    }
    try {
      val (labels64, rel64) = generate("64")
      val (labels4, rel4) = generate("4")
      val sameLabels = labels64 == labels4
      assert(sameLabels, "key -> label rows differ")
      assert(rel4.length == rel64.length)
      val firstDiff = rel4.indices.find(i => rel4(i) != rel64(i))
      assert(firstDiff.isEmpty, "relevant rows differ in order or content")
    } finally spark.conf.set(key, caller)
  }

  test("scale factor scales row counts") {
    val small = Datasets.instacartLite(spark, 0.005)
    val large = Datasets.instacartLite(spark, 0.02)
    assert(large.relevant.count() > small.relevant.count() * 2)
  }

  test("paper Table II shape: attr counts per dataset") {
    assert(byName("Tmall").predAttrs.size == 5)
    assert(byName("Instacart").predAttrs.size == 8)
    assert(byName("Student").predAttrs.size == 10)
    assert(byName("Merchant").predAttrs.size == 9)
    assert(byName("Tmall").aggAttrs.size == 6)
    assert(byName("Instacart").aggAttrs.size == 6)
    assert(AggFunc.all.size == 15) // |F|: every dataset's templates use all of them
  }

  test("Tmall uses the composite (user_id, merchant_id) key") {
    assert(byName("Tmall").keys == Vector("user_id", "merchant_id"))
  }

  test("directJoinAttrs exposes only numeric non-key relevant columns") {
    val cov = byName("Covtype")
    assert(cov.directJoinAttrs.toSet == (1 to 12).map(i => s"f$i").toSet)
    val hh = byName("Household")
    assert(!hh.directJoinAttrs.contains("c1")) // categorical excluded
    assert(!hh.directJoinAttrs.contains("data_index"))
  }

  /** The core shape property: the predicate-aware aggregate carries more
    * label signal (MI) than the same aggregate without predicates.
    */
  private def signalCheck(td: TaskDef, withPred: QuerySpec, woPred: QuerySpec): Unit = {
    val ex = MiniData.executor(td.train, td.relevant, td.keys)
    val y = td.train.select(td.label).collect().map(_.get(0) match {
      case i: Int => i.toDouble; case d: Double => d; case l: Long => l.toDouble
    })
    val miPred = Association.mutualInformation(ex.featureValues(withPred), y, td.task)
    val miNone = Association.mutualInformation(ex.featureValues(woPred), y, td.task)
    assert(miPred > miNone * 1.5 && miPred > 0.01,
      s"${td.name}: predicate-aware MI $miPred should dominate predicate-free MI $miNone")
  }

  test("Tmall: the planted signal lives behind predicates") {
    val td = byName("Tmall")
    signalCheck(td,
      QuerySpec(AggFunc.Sum, "item_price",
        Vector(Predicate("action_type", Some("purchase"), None, None),
          Predicate("time_stamp", None, Some(180.0), None)), td.keys),
      QuerySpec(AggFunc.Sum, "item_price", Vector.empty, td.keys))
  }

  test("Instacart: the planted signal lives behind predicates") {
    val td = byName("Instacart")
    signalCheck(td,
      QuerySpec(AggFunc.Count, "price",
        Vector(Predicate("department", Some("dep3"), None, None),
          Predicate("reordered", None, Some(1.0), None)), td.keys),
      QuerySpec(AggFunc.Count, "price", Vector.empty, td.keys))
  }

  test("Student: the planted signal lives behind predicates") {
    val td = byName("Student")
    signalCheck(td,
      QuerySpec(AggFunc.Sum, "hover_duration",
        Vector(Predicate("event_name", Some("hover"), None, None),
          Predicate("level", None, Some(15.0), None)), td.keys),
      QuerySpec(AggFunc.Sum, "hover_duration", Vector.empty, td.keys))
  }

  test("Merchant: the planted signal lives behind predicates") {
    val td = byName("Merchant")
    signalCheck(td,
      QuerySpec(AggFunc.Avg, "purchase_amount",
        Vector(Predicate("month_lag", None, Some(-2.0), None),
          Predicate("category", Some("cat2"), None, None)), td.keys),
      QuerySpec(AggFunc.Avg, "purchase_amount", Vector.empty, td.keys))
  }
}
