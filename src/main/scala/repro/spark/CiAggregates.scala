package repro.spark

import org.apache.spark.sql.{Encoder, Encoders, SparkSession}
import org.apache.spark.sql.expressions.Aggregator
import org.apache.spark.sql.functions

import repro.core.{Bounders, MomentState}

/** Distributed CI state aggregation: [[MomentState]] as a Spark
  * aggregation buffer (see DESIGN.md, "Extension-point mapping").
  *
  * `MomentAggregator` computes the per-group bounder state as a typed
  * `Aggregator` — partitions fold rows with the Welford update and merge
  * with the Chan combination, exactly the `update_state`/merge contract of
  * [[repro.core.ErrorBounder]]. Bound computation from the collected
  * states happens driver-side (δ budgeting and the online N⁺ need
  * cross-group context); [[CiAvgAggregator]] additionally evaluates a
  * fixed-parameter bounder inside the aggregation for the SQL-facing
  * `ci_avg_*` functions.
  *
  * Both take a boxed input so that they see SQL NULLs, and skip them as
  * SQL AVG does (a primitive `Double` input would read NULL as 0.0 and
  * bias the state).
  */
final class MomentAggregator extends Aggregator[java.lang.Double, MomentState, MomentState] {
  override def zero: MomentState = MomentState.empty
  override def reduce(b: MomentState, v: java.lang.Double): MomentState =
    CiAggregates.reduceSkippingNull(b, v)
  override def merge(b1: MomentState, b2: MomentState): MomentState = MomentState.merge(b1, b2)
  override def finish(r: MomentState): MomentState = r
  override def bufferEncoder: Encoder[MomentState] = Encoders.product[MomentState]
  override def outputEncoder: Encoder[MomentState] = Encoders.product[MomentState]
}

/** Output row of a `ci_avg_*` aggregation. */
final case class CiRow(mean: Double, lo: Double, hi: Double, m: Long)

/** A complete (1−δ) AVG confidence interval as a Spark aggregate, for a
  * known view size `n` and catalog range [a, b].
  */
final class CiAvgAggregator(
    bounderName: String, a: Double, b: Double, n: Long, delta: Double)
  extends Aggregator[java.lang.Double, MomentState, CiRow] {

  @transient private lazy val bounder = Bounders.byName(bounderName)

  override def zero: MomentState = MomentState.empty
  override def reduce(s: MomentState, v: java.lang.Double): MomentState =
    CiAggregates.reduceSkippingNull(s, v)
  override def merge(b1: MomentState, b2: MomentState): MomentState = MomentState.merge(b1, b2)

  override def finish(s: MomentState): CiRow = {
    val iv = bounder.interval(s, a, b, n, delta)
    CiRow(s.mean, iv.lo, iv.hi, s.m)
  }

  override def bufferEncoder: Encoder[MomentState] = Encoders.product[MomentState]
  override def outputEncoder: Encoder[CiRow] = Encoders.product[CiRow]
}

object CiAggregates {

  /** `update_state` with SQL AVG's null handling: a NULL leaves `s` as is. */
  private[spark] def reduceSkippingNull(s: MomentState, v: java.lang.Double): MomentState =
    if (v eq null) s else MomentState.update(s, v)

  /** The untyped UDAF view of [[MomentAggregator]], usable with
    * `df.groupBy(...).agg(...)`.
    */
  def momentUdaf: org.apache.spark.sql.expressions.UserDefinedFunction =
    functions.udaf(new MomentAggregator, Encoders.DOUBLE)

  /** The untyped UDAF view of [[CiAvgAggregator]]. */
  def ciAvgUdaf(bounderName: String, a: Double, b: Double, n: Long, delta: Double)
      : org.apache.spark.sql.expressions.UserDefinedFunction =
    functions.udaf(new CiAvgAggregator(bounderName, a, b, n, delta), Encoders.DOUBLE)

  /** Register `ci_moments` plus one `ci_avg_<bounder>` function per
    * Table-5 bounder into the session's function registry, making the
    * paper's CIs available from Spark SQL, e.g.
    *
    *   SELECT g, ci_avg_bernstein_rt(x) FROM t GROUP BY g
    *
    * Function names: ci_avg_hoeffding, ci_avg_hoeffding_rt,
    * ci_avg_bernstein, ci_avg_bernstein_rt.
    */
  def register(spark: SparkSession, a: Double, b: Double, n: Long, delta: Double): Unit = {
    spark.udf.register("ci_moments", momentUdaf)
    Bounders.all.foreach { bd =>
      val fname = "ci_avg_" + bd.name.toLowerCase.replace("+", "_")
      spark.udf.register(fname, ciAvgUdaf(bd.name, a, b, n, delta))
    }
  }
}
