package repro.core

import scala.collection.mutable
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.{col, spark_partition_id}
import org.apache.spark.sql.types.{BooleanType, NumericType, StringType}

/** The relevant table held in the driver as columns, so that one feature
  * query is one pass over arrays instead of one Spark job (vectorised
  * columnar execution, after Boncz, Zukowski & Nes, "MonetDB/X100", CIDR
  * 2005):
  *
  *  - numeric and boolean columns are `Array[Double]` plus a NULL bitmap;
  *  - string columns are dictionary codes in an `Array[Int]` (NULL = -1);
  *  - key columns are also coded by `String.valueOf`, the form in which
  *    training keys are matched;
  *  - columns of other types (dates, nested) are not loaded.
  *
  * A query narrows a selection vector of row indices, one predicate at a
  * time, then aggregates the selected rows per group of a [[Groups]] index
  * with the semantics of the Spark expressions in [[AggFunc]]. NULLs are
  * skipped as Spark skips them; values are assumed not to be NaN.
  *
  * Where floating-point rounding depends on the order of the rows (SUM,
  * AVG and the moment aggregates), the kernels follow Spark's plan:
  * a partial aggregate per partition of `relevant` over its rows in order,
  * then the partials merged in partition order with Spark's own merge
  * formulas. The rows keep the order in which `collect` returns them, and
  * `partStart` marks where each partition begins, so the columnar results
  * equal Spark's bit for bit and a search takes the same path on either.
  */
final class ColumnarTable private (
    nRows: Int,
    partStart: Array[Int],
    numbers: Map[String, ColumnarTable.Numbers],
    strings: Map[String, ColumnarTable.Codes],
    keyCodes: Map[String, ColumnarTable.Codes],
) {
  import ColumnarTable._

  /** The group index of `keys` for training rows whose key values (in
    * `keys` order) are `trainKeys`.
    */
  def groups(keys: Vector[String], trainKeys: Array[Vector[String]]): Groups = {
    val cols = keys.map(k => keyCodes.getOrElse(k, throw new IllegalArgumentException(s"$k is not a key column")))
    val groupOf = mutable.HashMap.empty[Vector[Int], Int]
    // A training key value absent from the table codes as -1, which no row has.
    val trainGroup = trainKeys.map { k =>
      groupOf.getOrElseUpdate(Vector.tabulate(keys.size)(j => cols(j).dict.getOrElse(k(j), -1)), groupOf.size)
    }
    val rowGroup = Array.tabulate(nRows)(i => groupOf.getOrElse(cols.map(_.codes(i)), -1))
    Groups(rowGroup, trainGroup, groupOf.size)
  }

  /** `q`'s aggregate per group of `g`; 0.0 for a group without selected
    * rows and for a NULL or NaN result.
    */
  def aggregate(q: QuerySpec, g: Groups): Array[Double] = {
    val x = number(q.aggAttr)
    val sel = q.preds.filterNot(_.isEmpty).foldLeft(x.nonNull(g.rows))((s, p) => select(p, s))
    val out = q.agg match {
      case AggFunc.Count | AggFunc.Min | AggFunc.Max => countMinMax(q.agg, x.values, sel, g)
      case AggFunc.Sum | AggFunc.Avg => sums(q.agg == AggFunc.Avg, x.values, partitions(sel), g)
      case AggFunc.VarPop | AggFunc.VarSamp | AggFunc.StdPop | AggFunc.StdSamp | AggFunc.Kurtosis =>
        moments(q.agg, x.values, partitions(sel), g)
      case AggFunc.CountDistinct | AggFunc.Entropy | AggFunc.Mode | AggFunc.Median | AggFunc.Mad =>
        sorted(q.agg, x.values, sel, g)
    }
    out.mapInPlace(v => if (v.isNaN) 0.0 else v)
  }

  /** `sel` cut at the partition boundaries of the collected table. */
  private def partitions(sel: Array[Int]): Seq[Array[Int]] = {
    def firstAtOrAfter(row: Int): Int = {
      val i = java.util.Arrays.binarySearch(sel, row)
      if (i >= 0) i else -i - 1
    }
    partStart.toSeq.sliding(2).map { case Seq(a, b) => sel.slice(firstAtOrAfter(a), firstAtOrAfter(b)) }.toSeq
  }

  private def number(attr: String): Numbers =
    numbers.getOrElse(attr, throw new IllegalArgumentException(s"$attr is not a loaded numeric column"))

  /** The rows of `sel` that satisfy `p`. Equality compares dictionary
    * codes; a range compares the value as a double, as `cast("double")`
    * does in [[FeatureQueryExecutor.featureDf]].
    */
  private def select(p: Predicate, sel: Array[Int]): Array[Int] = p.eqValue match {
    case Some(v) =>
      val c = strings.getOrElse(p.attr, throw new IllegalArgumentException(s"${p.attr} is not a loaded string column"))
      val code = c.dict.getOrElse(v, -2)
      sel.filter(i => c.codes(i) == code)
    case None =>
      val c = number(p.attr)
      val (lo, hi) = (p.lo.getOrElse(Double.NegativeInfinity), p.hi.getOrElse(Double.PositiveInfinity))
      c.nonNull(sel).filter(i => c.values(i) >= lo && c.values(i) <= hi)
  }
}

object ColumnarTable {

  /** A numeric column; `nulls` marks the NULL rows, whose value is 0.0. */
  final case class Numbers(values: Array[Double], nulls: java.util.BitSet) {
    def nonNull(sel: Array[Int]): Array[Int] = if (nulls.isEmpty) sel else sel.filterNot(nulls.get)
  }

  /** A dictionary-coded column. */
  final case class Codes(codes: Array[Int], dict: Map[String, Int])

  /** Row → group and training row → group for one key subset. Rows whose
    * key tuple no training row has are in group -1.
    */
  final case class Groups(rowGroup: Array[Int], trainGroup: Array[Int], nGroups: Int) {
    /** The rows of some training group: every query's first selection vector. */
    val rows: Array[Int] = rowGroup.indices.filter(rowGroup(_) >= 0).toArray
  }

  /** Collect `relevant` once, with each row's partition, and split it into
    * columns; the collected rows are dropped on return.
    */
  def collect(relevant: DataFrame, keys: Vector[String]): ColumnarTable = {
    // name -> is a string column, for the columns this table can hold.
    val loaded = relevant.schema.fields.toVector.collect {
      case f if f.dataType.isInstanceOf[StringType] => f.name -> true
      case f if f.dataType == BooleanType || f.dataType.isInstanceOf[NumericType] => f.name -> false
    }
    val names = (keys ++ loaded.map(_._1)).distinct
    val rows = relevant.select((spark_partition_id() +: names.map(col)): _*).collect()
    val partStart = (0 +: rows.indices.drop(1).filter(i => rows(i).getInt(0) != rows(i - 1).getInt(0)) :+ rows.length).toArray
    val at = names.zipWithIndex.map { case (n, j) => n -> (j + 1) }.toMap // column 0 is the partition
    val numbers = loaded.collect { case (n, false) => n -> toNumbers(rows, at(n)) }.toMap
    val strings = loaded.collect { case (n, true) => n -> toCodes(rows, at(n), v => Option(v).map(_.toString)) }.toMap
    val keyCodes = keys.map(k => k -> toCodes(rows, at(k), v => Some(String.valueOf(v)))).toMap
    new ColumnarTable(rows.length, partStart, numbers, strings, keyCodes)
  }

  private def toNumbers(rows: Array[Row], j: Int): Numbers = {
    val nulls = new java.util.BitSet(rows.length)
    val values = Array.tabulate(rows.length) { i =>
      if (rows(i).isNullAt(j)) { nulls.set(i); 0.0 } else toDouble(rows(i).get(j))
    }
    Numbers(values, nulls)
  }

  /** A non-NULL numeric or boolean Spark value as a double (true = 1.0). */
  def toDouble(v: Any): Double = v match {
    case b: Boolean => if (b) 1.0 else 0.0
    case n: Number  => n.doubleValue
    case other      => throw new IllegalArgumentException(s"non-numeric value $other")
  }

  /** Dictionary codes in first-seen order; `key` gives a value's dictionary
    * entry, or None for NULL (code -1).
    */
  private def toCodes(rows: Array[Row], j: Int, key: Any => Option[String]): Codes = {
    val dict = mutable.HashMap.empty[String, Int]
    val codes = rows.map(r => key(r.get(j)).fold(-1)(s => dict.getOrElseUpdate(s, dict.size)))
    Codes(codes, dict.toMap)
  }

  /** COUNT, MIN and MAX: one pass, in any row order. */
  private def countMinMax(agg: AggFunc, x: Array[Double], sel: Array[Int], g: Groups): Array[Double] = {
    val n = new Array[Long](g.nGroups)
    val acc = new Array[Double](g.nGroups)
    for (i <- sel) {
      val k = g.rowGroup(i)
      val v = x(i)
      if (n(k) == 0 || (agg == AggFunc.Min && v < acc(k)) || (agg == AggFunc.Max && v > acc(k))) acc(k) = v
      n(k) += 1
    }
    if (agg == AggFunc.Count) n.map(_.toDouble) else acc
  }

  /** SUM and AVG: each partition's rows summed in row order, then the
    * partial sums added in partition order.
    */
  private def sums(avg: Boolean, x: Array[Double], parts: Seq[Array[Int]], g: Groups): Array[Double] = {
    val n = new Array[Long](g.nGroups)
    val total = new Array[Double](g.nGroups)
    for (part <- parts) {
      val partial = new Array[Double](g.nGroups)
      val seen = new Array[Boolean](g.nGroups)
      for (i <- part) {
        val k = g.rowGroup(i)
        partial(k) += x(i)
        seen(k) = true
        n(k) += 1
      }
      for (k <- 0 until g.nGroups if seen(k)) total(k) += partial(k)
    }
    if (avg) Array.tabulate(g.nGroups)(k => if (n(k) == 0) 0.0 else total(k) / n(k)) else total
  }

  /** Count, mean and central moment sums 2–4 per group. */
  private final class Moments(size: Int) {
    val n, mean, m2, m3, m4 = new Array[Double](size)

    /** Add `v` to group `k`: the update of Spark's `CentralMomentAgg`. */
    def update(k: Int, v: Double): Unit = {
      val newN = n(k) + 1.0
      val delta = v - mean(k)
      val deltaN = delta / newN
      val delta2 = delta * delta
      val deltaN2 = deltaN * deltaN
      mean(k) += deltaN
      m2(k) += delta * (delta - deltaN)
      m3(k) = m3(k) - 3.0 * deltaN * m2(k) + delta * (delta2 - deltaN2)
      m4(k) = m4(k) - 4.0 * deltaN * m3(k) - 6.0 * deltaN2 * m2(k) + delta * (delta * delta2 - deltaN * deltaN2)
      n(k) = newN
    }

    /** Fold group `k` of `o` into group `k`: the merge of `CentralMomentAgg`. */
    def merge(k: Int, o: Moments): Unit = {
      val (n1, n2) = (n(k), o.n(k))
      val newN = n1 + n2
      val delta = o.mean(k) - mean(k)
      val deltaN = if (newN == 0.0) 0.0 else delta / newN
      val newM2 = m2(k) + o.m2(k) + delta * deltaN * n1 * n2
      val newM3 = m3(k) + o.m3(k) + deltaN * deltaN * delta * n1 * n2 * (n1 - n2) +
        3.0 * deltaN * (n1 * o.m2(k) - n2 * m2(k))
      m4(k) = m4(k) + o.m4(k) +
        deltaN * deltaN * deltaN * delta * n1 * n2 * (n1 * n1 - n1 * n2 + n2 * n2) +
        6.0 * deltaN * deltaN * (n1 * n1 * o.m2(k) + n2 * n2 * m2(k)) +
        4.0 * deltaN * (n1 * o.m3(k) - n2 * m3(k))
      m3(k) = newM3
      m2(k) = newM2
      mean(k) += deltaN * n2
      n(k) = newN
    }
  }

  /** Variance, standard deviation and kurtosis: central moments per
    * partition, merged in partition order.
    */
  private def moments(agg: AggFunc, x: Array[Double], parts: Seq[Array[Int]], g: Groups): Array[Double] = {
    val total = new Moments(g.nGroups)
    for (part <- parts) {
      val partial = new Moments(g.nGroups)
      for (i <- part) partial.update(g.rowGroup(i), x(i))
      for (k <- 0 until g.nGroups if partial.n(k) > 0) total.merge(k, partial)
    }
    import total.{m2, m4, n}
    Array.tabulate(g.nGroups) { k =>
      if (n(k) == 0) 0.0
      else agg match {
        case AggFunc.VarPop   => m2(k) / n(k)
        case AggFunc.VarSamp  => if (n(k) == 1) 0.0 else m2(k) / (n(k) - 1)
        case AggFunc.StdPop   => math.sqrt(m2(k) / n(k))
        case AggFunc.StdSamp  => if (n(k) == 1) 0.0 else math.sqrt(m2(k) / (n(k) - 1))
        case AggFunc.Kurtosis => if (m2(k) == 0) 0.0 else n(k) * m4(k) / (m2(k) * m2(k)) - 3.0
        case other            => throw new IllegalStateException(s"$other is not a moment aggregate")
      }
    }
  }

  /** COUNT_DISTINCT, ENTROPY, MODE, MEDIAN and MAD over each group's
    * values, sorted in place within a contiguous segment per group.
    */
  private def sorted(agg: AggFunc, x: Array[Double], sel: Array[Int], g: Groups): Array[Double] = {
    val start = new Array[Int](g.nGroups + 1)
    for (i <- sel) start(g.rowGroup(i) + 1) += 1
    for (k <- 0 until g.nGroups) start(k + 1) += start(k)
    val next = start.clone()
    val vals = new Array[Double](sel.length)
    for (i <- sel) {
      val k = g.rowGroup(i)
      vals(next(k)) = x(i)
      next(k) += 1
    }
    Array.tabulate(g.nGroups) { k =>
      val (a, b) = (start(k), start(k + 1))
      java.util.Arrays.sort(vals, a, b)
      // Lengths of the runs of equal values, in ascending value order.
      def runs: Vector[Int] = {
        val r = Vector.newBuilder[Int]
        var s = a
        for (j <- a + 1 to b) if (j == b || vals(j) != vals(s)) { r += j - s; s = j }
        r.result()
      }
      if (a == b) 0.0
      else agg match {
        case AggFunc.CountDistinct => runs.size.toDouble
        case AggFunc.Entropy       => Aggregates.entropy(runs.map(_.toLong))
        case AggFunc.Mode =>
          // The first longest run: the smallest of the most frequent values.
          val r = runs
          vals(a + r.take(r.indexOf(r.max)).sum)
        case AggFunc.Median => Aggregates.median(java.util.Arrays.copyOfRange(vals, a, b))
        case AggFunc.Mad    => Aggregates.mad(java.util.Arrays.copyOfRange(vals, a, b))
        case other          => throw new IllegalStateException(s"$other is not an order-based aggregate")
      }
    }
  }
}
