package repro.core

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions._

/** The 15 aggregation functions of the paper's query templates (Table II).
  *
  * Each function renders both a Spark Catalyst expression (the execution
  * path) and an equivalent DuckDB SQL fragment (the oracle path). Oracle
  * tables store values as VARCHAR, so the DuckDB side casts explicitly.
  * `oracleSafe` marks functions whose semantics match DuckDB bit-for-bit;
  * KURTOSIS (population excess in Spark vs sample excess in DuckDB) and
  * MODE (DuckDB leaves its tie-break unspecified; here a tie goes to the
  * smallest of the most frequent values) are verified by hand-computed
  * unit tests instead.
  */
sealed abstract class AggFunc(val name: String, val oracleSafe: Boolean) {
  /** Catalyst aggregate over the (numeric) aggregation attribute. */
  def sparkExpr(col: Column): Column
  /** DuckDB fragment over the raw VARCHAR column named `col`. */
  def duckExpr(col: String): String
  protected def c(col: String): String = s"CAST($col AS DOUBLE)"
}

object AggFunc {
  case object Sum extends AggFunc("SUM", oracleSafe = true) {
    def sparkExpr(col: Column): Column = sum(col); def duckExpr(col: String) = s"SUM(${c(col)})"
  }
  case object Min extends AggFunc("MIN", oracleSafe = true) {
    def sparkExpr(col: Column): Column = min(col); def duckExpr(col: String) = s"MIN(${c(col)})"
  }
  case object Max extends AggFunc("MAX", oracleSafe = true) {
    def sparkExpr(col: Column): Column = max(col); def duckExpr(col: String) = s"MAX(${c(col)})"
  }
  case object Count extends AggFunc("COUNT", oracleSafe = true) {
    def sparkExpr(col: Column): Column = count(col); def duckExpr(col: String) = s"COUNT($col)"
  }
  case object Avg extends AggFunc("AVG", oracleSafe = true) {
    def sparkExpr(col: Column): Column = avg(col); def duckExpr(col: String) = s"AVG(${c(col)})"
  }
  case object CountDistinct extends AggFunc("COUNT_DISTINCT", oracleSafe = true) {
    def sparkExpr(col: Column): Column = countDistinct(col)
    def duckExpr(col: String) = s"COUNT(DISTINCT $col)"
  }
  case object VarPop extends AggFunc("VAR", oracleSafe = true) {
    def sparkExpr(col: Column): Column = var_pop(col); def duckExpr(col: String) = s"VAR_POP(${c(col)})"
  }
  case object VarSamp extends AggFunc("VAR_SAMPLE", oracleSafe = true) {
    def sparkExpr(col: Column): Column = var_samp(col); def duckExpr(col: String) = s"VAR_SAMP(${c(col)})"
  }
  case object StdPop extends AggFunc("STD", oracleSafe = true) {
    def sparkExpr(col: Column): Column = stddev_pop(col); def duckExpr(col: String) = s"STDDEV_POP(${c(col)})"
  }
  case object StdSamp extends AggFunc("STD_SAMPLE", oracleSafe = true) {
    def sparkExpr(col: Column): Column = stddev_samp(col); def duckExpr(col: String) = s"STDDEV_SAMP(${c(col)})"
  }
  case object Entropy extends AggFunc("ENTROPY", oracleSafe = true) {
    def sparkExpr(col: Column): Column = call_udf("fa_entropy", col.cast("double"))
    def duckExpr(col: String) = s"ENTROPY($col)"
  }
  case object Kurtosis extends AggFunc("KURTOSIS", oracleSafe = false) {
    def sparkExpr(col: Column): Column = kurtosis(col); def duckExpr(col: String) = s"KURTOSIS(${c(col)})"
  }
  case object Mode extends AggFunc("MODE", oracleSafe = false) {
    def sparkExpr(col: Column): Column = mode(col, deterministic = true); def duckExpr(col: String) = s"MODE(${c(col)})"
  }
  case object Mad extends AggFunc("MAD", oracleSafe = true) {
    def sparkExpr(col: Column): Column = call_udf("fa_mad", col.cast("double"))
    def duckExpr(col: String) = s"MAD(${c(col)})"
  }
  case object Median extends AggFunc("MEDIAN", oracleSafe = true) {
    def sparkExpr(col: Column): Column = median(col); def duckExpr(col: String) = s"MEDIAN(${c(col)})"
  }

  /** The full function set used by every dataset's templates (paper Table II). */
  lazy val all: Vector[AggFunc] = Vector(
    Sum, Min, Max, Count, Avg, CountDistinct, VarPop, VarSamp,
    StdPop, StdSamp, Entropy, Kurtosis, Mode, Mad, Median)
}
