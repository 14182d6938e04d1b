package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.SparkSpec
import repro.ml.Splits
import scala.util.Random

/** A tiny deterministic one-to-many fixture shared by core tests:
  * `train(uid, b, label)` and `relevant(uid, cat, amt, t)`. The label is
  * planted behind the predicate `cat = 'A' AND t >= 5` (sum of amt), so
  * predicate-aware queries carry strictly more signal than whole-history
  * aggregates.
  */
trait MiniData { self: SparkSpec =>

  lazy val nUsers = 60

  lazy val relevantRows: Seq[(Long, String, Double, Int)] = {
    val rnd = new Random(7)
    (1 to 900).map { _ =>
      (rnd.nextInt(nUsers) + 1L,
        ('A' + rnd.nextInt(4)).toChar.toString,
        math.round(rnd.nextDouble() * 100 * 100) / 100.0,
        rnd.nextInt(10))
    }
  }

  lazy val relevant: DataFrame = {
    val s = spark
    import s.implicits._
    relevantRows.toDF("uid", "cat", "amt", "t").cache()
  }

  /** Per-user planted signal: sum of amt where cat='A' and t>=5. */
  lazy val signal: Map[Long, Double] =
    relevantRows.filter(r => r._2 == "A" && r._4 >= 5)
      .groupBy(_._1).view.mapValues(_.map(_._3).sum).toMap

  lazy val trainRows: Seq[(Long, Double, Int)] = {
    val rnd = new Random(13)
    val med = signal.values.toSeq.sorted.apply(signal.size / 2)
    (1 to nUsers).map { u =>
      val s = signal.getOrElse(u.toLong, 0.0)
      val noisy = s - med + rnd.nextGaussian() * 10
      (u.toLong, rnd.nextDouble(), if (noisy > 0) 1 else 0)
    }
  }

  lazy val train: DataFrame = {
    val s = spark
    import s.implicits._
    trainRows.toDF("uid", "b", "label").cache()
  }

  lazy val executor: FeatureQueryExecutor = MiniData.executor(train, relevant, Vector("uid"))

  lazy val domains: Map[String, AttrDomain] =
    SearchSpace.domains(relevant, Seq("cat", "t"), maxCats = 6, numQuantiles = 5)

  lazy val template: QueryTemplate =
    QueryTemplate(MiniData.basic, Vector("amt", "t"), Vector("cat", "t"), Vector("uid"))

  lazy val codec = new QueryVectorCodec(template, domains)

  lazy val baseX: Array[Array[Double]] = trainRows.map(r => Array(r._2)).toArray
  lazy val yArr: Array[Double] = trainRows.map(_._3.toDouble).toArray
  lazy val split: Splits.Split = Splits.threeWay(nUsers, 42)
}

object MiniData {
  /** A cheap aggregation-function subset for small templates. */
  val basic: Vector[AggFunc] = Vector(AggFunc.Sum, AggFunc.Min, AggFunc.Max, AggFunc.Count, AggFunc.Avg)

  /** An executor over `relevant` for the rows of `train`, in the order in
    * which `train` collects, with keys read as `Prepared` reads them.
    */
  def executor(train: DataFrame, relevant: DataFrame, keys: Vector[String]): FeatureQueryExecutor =
    new FeatureQueryExecutor(relevant, keys, train.select(keys.map(col): _*).collect()
      .map(ColumnarTable.keyRow(_, keys.size)))
}
