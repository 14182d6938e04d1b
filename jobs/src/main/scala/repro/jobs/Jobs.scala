package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.Experiments

/** Renders paper tables to standard output, one blank line apart:
  * `RunTables [--sf x] [id ...]`. Ids are `I II III IV VI VII VIII` (IV
  * also holds Table V); with none, every table in paper order. Data is
  * bench-scale SF 0.1 unless `--sf` says otherwise, and the search runs on
  * the bench budget. Progress and Spark logs go to standard error.
  */
object RunTables {
  def main(args: Array[String]): Unit = {
    val (sf, ids) = args.toList match {
      case "--sf" :: v :: rest => (v.toDouble, rest)
      case rest                => (0.1, rest)
    }
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("tables")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    val exp = new Experiments(spark, sf, Experiments.benchBudget)
    // An unknown id fails here, before any data is generated.
    ids.filterNot(exp.tableIds.contains).foreach(exp.table)
    (if (ids.isEmpty) exp.tableIds else ids).zipWithIndex.foreach { case (id, i) =>
      if (i > 0) println()
      println(exp.table(id).render)
    }
  }
}
