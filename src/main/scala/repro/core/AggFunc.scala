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
sealed abstract class AggFunc(val name: String, val oracleSafe: Boolean, duck: String) {
  /** DuckDB fragment over the raw VARCHAR column named `col` (`%s` in `duck`). */
  def duckExpr(col: String): String = duck.format(col)
}

object AggFunc {
  private val Cast = "CAST(%s AS DOUBLE)" // a column as a number
  case object Sum extends AggFunc("SUM", oracleSafe = true, s"SUM($Cast)")
  case object Min extends AggFunc("MIN", oracleSafe = true, s"MIN($Cast)")
  case object Max extends AggFunc("MAX", oracleSafe = true, s"MAX($Cast)")
  case object Count extends AggFunc("COUNT", oracleSafe = true, "COUNT(%s)")
  case object Avg extends AggFunc("AVG", oracleSafe = true, s"AVG($Cast)")
  case object CountDistinct extends AggFunc("COUNT_DISTINCT", oracleSafe = true, "COUNT(DISTINCT %s)")
  case object VarPop extends AggFunc("VAR", oracleSafe = true, s"VAR_POP($Cast)")
  case object VarSamp extends AggFunc("VAR_SAMPLE", oracleSafe = true, s"VAR_SAMP($Cast)")
  case object StdPop extends AggFunc("STD", oracleSafe = true, s"STDDEV_POP($Cast)")
  case object StdSamp extends AggFunc("STD_SAMPLE", oracleSafe = true, s"STDDEV_SAMP($Cast)")
  case object Entropy extends AggFunc("ENTROPY", oracleSafe = true, "ENTROPY(%s)")
  case object Kurtosis extends AggFunc("KURTOSIS", oracleSafe = false, s"KURTOSIS($Cast)")
  case object Mode extends AggFunc("MODE", oracleSafe = false, s"MODE($Cast)")
  case object Mad extends AggFunc("MAD", oracleSafe = true, s"MAD($Cast)")
  case object Median extends AggFunc("MEDIAN", oracleSafe = true, s"MEDIAN($Cast)")

  /** The full function set used by every dataset's templates (paper Table II). */
  lazy val all: Vector[AggFunc] = Vector(
    Sum, Min, Max, Count, Avg, CountDistinct, VarPop, VarSamp,
    StdPop, StdSamp, Entropy, Kurtosis, Mode, Mad, Median)
}
