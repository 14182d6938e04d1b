package repro.core

/** The 15 aggregation functions of the paper's query templates (Table II).
  *
  * The columnar executor ([[ColumnarTable]]) computes each function; each
  * also renders an equivalent DuckDB SQL fragment (the oracle path). Oracle
  * tables store values as VARCHAR, so the DuckDB side casts explicitly.
  * `oracleSafe` marks functions whose semantics match DuckDB bit-for-bit;
  * KURTOSIS (population excess in Spark vs sample excess in DuckDB) and
  * MODE (DuckDB leaves its tie-break unspecified; here a tie goes to the
  * smallest of the most frequent values) are verified by hand-computed
  * unit tests instead.
  */
sealed abstract class AggFunc(val name: String, val oracleSafe: Boolean) {
  /** DuckDB fragment over the raw VARCHAR column named `col`. */
  def duckExpr(col: String): String
  protected def c(col: String): String = s"CAST($col AS DOUBLE)"
}

object AggFunc {
  case object Sum extends AggFunc("SUM", oracleSafe = true) {
    def duckExpr(col: String) = s"SUM(${c(col)})"
  }
  case object Min extends AggFunc("MIN", oracleSafe = true) {
    def duckExpr(col: String) = s"MIN(${c(col)})"
  }
  case object Max extends AggFunc("MAX", oracleSafe = true) {
    def duckExpr(col: String) = s"MAX(${c(col)})"
  }
  case object Count extends AggFunc("COUNT", oracleSafe = true) {
    def duckExpr(col: String) = s"COUNT($col)"
  }
  case object Avg extends AggFunc("AVG", oracleSafe = true) {
    def duckExpr(col: String) = s"AVG(${c(col)})"
  }
  case object CountDistinct extends AggFunc("COUNT_DISTINCT", oracleSafe = true) {
    def duckExpr(col: String) = s"COUNT(DISTINCT $col)"
  }
  case object VarPop extends AggFunc("VAR", oracleSafe = true) {
    def duckExpr(col: String) = s"VAR_POP(${c(col)})"
  }
  case object VarSamp extends AggFunc("VAR_SAMPLE", oracleSafe = true) {
    def duckExpr(col: String) = s"VAR_SAMP(${c(col)})"
  }
  case object StdPop extends AggFunc("STD", oracleSafe = true) {
    def duckExpr(col: String) = s"STDDEV_POP(${c(col)})"
  }
  case object StdSamp extends AggFunc("STD_SAMPLE", oracleSafe = true) {
    def duckExpr(col: String) = s"STDDEV_SAMP(${c(col)})"
  }
  case object Entropy extends AggFunc("ENTROPY", oracleSafe = true) {
    def duckExpr(col: String) = s"ENTROPY($col)"
  }
  case object Kurtosis extends AggFunc("KURTOSIS", oracleSafe = false) {
    def duckExpr(col: String) = s"KURTOSIS(${c(col)})"
  }
  case object Mode extends AggFunc("MODE", oracleSafe = false) {
    def duckExpr(col: String) = s"MODE(${c(col)})"
  }
  case object Mad extends AggFunc("MAD", oracleSafe = true) {
    def duckExpr(col: String) = s"MAD(${c(col)})"
  }
  case object Median extends AggFunc("MEDIAN", oracleSafe = true) {
    def duckExpr(col: String) = s"MEDIAN(${c(col)})"
  }

  /** The full function set used by every dataset's templates (paper Table II). */
  lazy val all: Vector[AggFunc] = Vector(
    Sum, Min, Max, Count, Avg, CountDistinct, VarPop, VarSamp,
    StdPop, StdSamp, Entropy, Kurtosis, Mode, Mad, Median)
}
