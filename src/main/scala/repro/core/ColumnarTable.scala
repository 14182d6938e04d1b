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
  *  - key columns are also coded by [[ColumnarTable.keyValue]], the form
  *    in which training keys are matched;
  *  - columns of other types (dates, nested) are not loaded.
  *
  * A query narrows a selection vector of row indices, one predicate at a
  * time, then aggregates the selected rows per group of a [[Groups]] index
  * with the semantics of Spark's built-in aggregates for each [[AggFunc]].
  * NULLs are skipped as Spark skips them; values are assumed not to be NaN.
  *
  * Where floating-point rounding depends on the order of the rows (SUM,
  * AVG and the moment aggregates), the kernels follow Spark's plan:
  * a partial aggregate per partition of `relevant` over its rows in order,
  * then the partials merged in partition order with Spark's own merge
  * formulas. The rows keep the order in which `collect` returns them, and
  * `partStart` marks where each partition begins. The replay is what keeps
  * the columnar results equal, bit for bit, to the Spark reference path the
  * tests hold, and to every result since the search moved off Spark: a
  * last-bit difference in one feature can change which query TPE keeps.
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
    val sel = q.preds.foldLeft(x.nonNull(g.rows))((s, p) => select(p, s))
    val out = q.agg match {
      case AggFunc.Count | AggFunc.Min | AggFunc.Max => countMinMax(q.agg, x.values, sel, g)
      case AggFunc.Sum | AggFunc.Avg => sums(q.agg == AggFunc.Avg, x.values, sel, cuts(sel), g)
      case AggFunc.VarPop | AggFunc.VarSamp | AggFunc.StdPop | AggFunc.StdSamp | AggFunc.Kurtosis =>
        moments(q.agg, x.values, sel, cuts(sel), g)
      case AggFunc.CountDistinct | AggFunc.Entropy | AggFunc.Mode | AggFunc.Median | AggFunc.Mad =>
        sorted(q.agg, x.values, sel, g)
    }
    var k = 0
    while (k < out.length) { if (out(k).isNaN) out(k) = 0.0; k += 1 }
    out
  }

  /** Where each partition of the collected table begins in `sel`:
    * partition `p`'s selected rows are `sel(cuts(p) until cuts(p + 1))`.
    */
  private def cuts(sel: Array[Int]): Array[Int] = partStart.map { row =>
    val i = java.util.Arrays.binarySearch(sel, row)
    if (i >= 0) i else -i - 1
  }

  private def number(attr: String): Numbers =
    numbers.getOrElse(attr, throw new IllegalArgumentException(s"$attr is not a loaded numeric column"))

  /** The rows of `sel` that satisfy `p`. Equality compares dictionary
    * codes; a range compares the value as a double, as `CAST(attr AS
    * DOUBLE)` does in [[FeatureQueryExecutor.duckSql]].
    */
  private def select(p: Predicate, sel: Array[Int]): Array[Int] = p.eqValue match {
    case Some(v) =>
      val c = strings.getOrElse(p.attr, throw new IllegalArgumentException(s"${p.attr} is not a loaded string column"))
      val (codes, code) = (c.codes, c.dict.getOrElse(v, -2))
      val out = new Array[Int](sel.length)
      var n = 0
      var j = 0
      while (j < sel.length) {
        val i = sel(j)
        if (codes(i) == code) { out(n) = i; n += 1 }
        j += 1
      }
      java.util.Arrays.copyOf(out, n)
    case None =>
      val c = number(p.attr)
      val (lo, hi) = (p.lo.getOrElse(Double.NegativeInfinity), p.hi.getOrElse(Double.PositiveInfinity))
      val (values, rows) = (c.values, c.nonNull(sel))
      val out = new Array[Int](rows.length)
      var n = 0
      var j = 0
      while (j < rows.length) {
        val i = rows(j)
        if (values(i) >= lo && values(i) <= hi) { out(n) = i; n += 1 }
        j += 1
      }
      java.util.Arrays.copyOf(out, n)
  }
}

object ColumnarTable {

  /** A numeric column; `nulls` marks the NULL rows, whose value is 0.0. */
  final case class Numbers(values: Array[Double], nulls: java.util.BitSet) {
    def nonNull(sel: Array[Int]): Array[Int] =
      if (nulls.isEmpty) sel
      else {
        val out = new Array[Int](sel.length)
        var n = 0
        var j = 0
        while (j < sel.length) {
          if (!nulls.get(sel(j))) { out(n) = sel(j); n += 1 }
          j += 1
        }
        java.util.Arrays.copyOf(out, n)
      }
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
    val keyCodes = keys.map(k => k -> toCodes(rows, at(k), v => Some(keyValue(v)))).toMap
    new ColumnarTable(rows.length, partStart, numbers, strings, keyCodes)
  }

  /** A key value in the one form in which training keys are matched to the
    * table's (`String.valueOf`, so NULL reads as "null").
    */
  def keyValue(v: Any): String = String.valueOf(v)

  /** The first `n` values of `r` as a key tuple of [[keyValue]]s. */
  def keyRow(r: Row, n: Int): Vector[String] = Vector.tabulate(n)(i => keyValue(r.get(i)))

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
    val (rowGroup, min, max) = (g.rowGroup, agg == AggFunc.Min, agg == AggFunc.Max)
    val n = new Array[Long](g.nGroups)
    val acc = new Array[Double](g.nGroups)
    var j = 0
    while (j < sel.length) {
      val i = sel(j)
      val k = rowGroup(i)
      val v = x(i)
      if (n(k) == 0 || (min && v < acc(k)) || (max && v > acc(k))) acc(k) = v
      n(k) += 1
      j += 1
    }
    if (agg == AggFunc.Count) { var k = 0; while (k < n.length) { acc(k) = n(k).toDouble; k += 1 } }
    acc
  }

  /** SUM and AVG: each partition's rows summed in row order, then the
    * partial sums added in partition order.
    */
  private def sums(avg: Boolean, x: Array[Double], sel: Array[Int], cuts: Array[Int], g: Groups): Array[Double] = {
    val rowGroup = g.rowGroup
    val n = new Array[Long](g.nGroups)
    val total = new Array[Double](g.nGroups)
    val partial = new Array[Double](g.nGroups)
    val seen = new Array[Boolean](g.nGroups)
    var p = 0
    while (p + 1 < cuts.length) {
      java.util.Arrays.fill(partial, 0.0)
      java.util.Arrays.fill(seen, false)
      var j = cuts(p)
      while (j < cuts(p + 1)) {
        val i = sel(j)
        val k = rowGroup(i)
        partial(k) += x(i)
        seen(k) = true
        n(k) += 1
        j += 1
      }
      var k = 0
      while (k < g.nGroups) { if (seen(k)) total(k) += partial(k); k += 1 }
      p += 1
    }
    if (avg) { var k = 0; while (k < g.nGroups) { total(k) = if (n(k) == 0) 0.0 else total(k) / n(k); k += 1 } }
    total
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
  private def moments(agg: AggFunc, x: Array[Double], sel: Array[Int], cuts: Array[Int], g: Groups): Array[Double] = {
    val rowGroup = g.rowGroup
    val total = new Moments(g.nGroups)
    var p = 0
    while (p + 1 < cuts.length) {
      val partial = new Moments(g.nGroups)
      var j = cuts(p)
      while (j < cuts(p + 1)) { val i = sel(j); partial.update(rowGroup(i), x(i)); j += 1 }
      var k = 0
      while (k < g.nGroups) { if (partial.n(k) > 0) total.merge(k, partial); k += 1 }
      p += 1
    }
    import total.{m2, m4, n}
    val out = new Array[Double](g.nGroups)
    var k = 0
    while (k < g.nGroups) {
      out(k) =
        if (n(k) == 0) 0.0
        else agg match {
          case AggFunc.VarPop   => m2(k) / n(k)
          case AggFunc.VarSamp  => if (n(k) == 1) 0.0 else m2(k) / (n(k) - 1)
          case AggFunc.StdPop   => math.sqrt(m2(k) / n(k))
          case AggFunc.StdSamp  => if (n(k) == 1) 0.0 else math.sqrt(m2(k) / (n(k) - 1))
          case AggFunc.Kurtosis => if (m2(k) == 0) 0.0 else n(k) * m4(k) / (m2(k) * m2(k)) - 3.0
          case other            => throw new IllegalStateException(s"$other is not a moment aggregate")
        }
      k += 1
    }
    out
  }

  /** COUNT_DISTINCT, ENTROPY, MODE, MEDIAN and MAD over each group's
    * values, sorted in place within a contiguous segment per group.
    */
  private def sorted(agg: AggFunc, x: Array[Double], sel: Array[Int], g: Groups): Array[Double] = {
    val rowGroup = g.rowGroup
    val start = new Array[Int](g.nGroups + 1)
    var j = 0
    while (j < sel.length) { start(rowGroup(sel(j)) + 1) += 1; j += 1 }
    var k = 0
    while (k < g.nGroups) { start(k + 1) += start(k); k += 1 }
    val next = start.clone()
    val vals = new Array[Double](sel.length)
    j = 0
    while (j < sel.length) {
      val i = sel(j)
      val k = rowGroup(i)
      vals(next(k)) = x(i)
      next(k) += 1
      j += 1
    }
    // The current group's runs of equal values, by ascending value: their
    // lengths are `runs(0 until nRuns)`.
    val runs = new Array[Long](sel.length)
    val out = new Array[Double](g.nGroups)
    k = 0
    while (k < g.nGroups) {
      val (a, b) = (start(k), start(k + 1))
      if (a < b) {
        java.util.Arrays.sort(vals, a, b)
        var nRuns = 0
        var s = a
        var e = a + 1
        while (e <= b) {
          if (e == b || vals(e) != vals(s)) { runs(nRuns) = e - s; nRuns += 1; s = e }
          e += 1
        }
        out(k) = agg match {
          case AggFunc.CountDistinct => nRuns.toDouble
          case AggFunc.Entropy       => entropy(scala.collection.immutable.ArraySeq.unsafeWrapArray(runs).take(nRuns))
          case AggFunc.Mode =>
            // The first longest run: the smallest of the most frequent values.
            var best = 0L
            var at = a
            var from = a
            var r = 0
            while (r < nRuns) {
              if (runs(r) > best) { best = runs(r); at = from }
              from += runs(r).toInt
              r += 1
            }
            vals(at)
          case AggFunc.Median => middle(vals, a, b)
          case AggFunc.Mad    => mad(vals, a, b)
          case other          => throw new IllegalStateException(s"$other is not an order-based aggregate")
        }
      }
      k += 1
    }
    out
  }

  /** Shannon entropy (bits) of the value counts `counts`, summed in the
    * order given (ascending value), so the result does not depend on the
    * order in which the rows were seen; 0.0 for no values.
    */
  private[core] def entropy(counts: Seq[Long]): Double = {
    val n = counts.sum.toDouble
    if (n <= 0) 0.0
    else {
      val h = -counts.iterator.map { c => val p = c / n; p * math.log(p) / math.log(2.0) }.sum
      if (h == 0.0) 0.0 else h // normalize IEEE -0.0 from single-value groups
    }
  }

  /** Median absolute deviation of non-empty `values` around their median. */
  private[core] def mad(values: Array[Double]): Double = { val s = ascending(values); mad(s, 0, s.length) }

  /** Interpolated median: mean of the two middle values for even counts. */
  private[core] def median(values: Array[Double]): Double = { val s = ascending(values); middle(s, 0, s.length) }

  /** A sorted copy of non-empty `values`. */
  private def ascending(values: Array[Double]): Array[Double] = {
    require(values.nonEmpty, "median of empty array")
    val s = values.clone()
    java.util.Arrays.sort(s)
    s
  }

  /** The median of `s(a until b)`, sorted ascending and non-empty. */
  private def middle(s: Array[Double], a: Int, b: Int): Double = {
    val n = b - a
    if (n % 2 == 1) s(a + n / 2) else (s(a + n / 2 - 1) + s(a + n / 2)) / 2.0
  }

  /** The median absolute deviation of `s(a until b)`, sorted ascending. */
  private def mad(s: Array[Double], a: Int, b: Int): Double = {
    val med = middle(s, a, b)
    val dev = new Array[Double](b - a)
    var j = 0
    while (j < dev.length) { dev(j) = math.abs(s(a + j) - med); j += 1 }
    java.util.Arrays.sort(dev)
    middle(dev, 0, dev.length)
  }
}
