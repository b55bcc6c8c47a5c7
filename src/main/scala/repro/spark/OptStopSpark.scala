package repro.spark

import org.apache.spark.sql.{DataFrame, functions => F}

import repro.core.{CountBound, Interval, MomentBounder, MomentState, OptStop}
import repro.fastframe.{GroupBounds, StopCondition}

import scala.collection.mutable

/** One group's outcome from [[OptStopSpark.run]]: `state` holds the
  * moments of the group's non-null values in the final prefix.
  */
final case class SparkGroupCi(
    key: Seq[String], state: MomentState, iv: Interval, exact: Boolean) {
  def m: Long      = state.m
  def mean: Double = state.mean
}

/** One round of [[OptStopSpark.run]]: it aggregated the scramble slice
  * `lo <= scramble_pos < hi`, and `values` is the number of non-null
  * values that slice contributed (Σ m over its group states).
  */
final case class SparkRound(lo: Long, hi: Long, values: Long)

/** Outcome of an optional-stopping Spark run. `finalPrefix` is the data
  * the answer needed (the paper's early-termination metric). Each round
  * aggregates only the slice its prefix added, so `totalRowsRead`, the
  * scramble positions fed to the rounds' aggregations, equals
  * `finalPrefix`.
  */
final case class OptStopSparkResult(
    groups: IndexedSeq[SparkGroupCi],
    perRound: IndexedSeq[SparkRound]) {
  def finalPrefix: Long   = perRound.last.hi
  def totalRowsRead: Long = perRound.iterator.map(s => s.hi - s.lo).sum
  def rounds: Int         = perRound.size
}

/** The paper's Algorithm 5 rendered as distributed dataflow. Round k
  * aggregates only the scramble slice [r_{k-1}, r_k) with the
  * [[MomentAggregator]] (one Spark group-by over sampled partitions) and
  * the driver folds each group's slice state into its running prefix state
  * with the Chan merge, so every sampled row is read once (the paper's
  * `update_state` carried across rounds). From the prefix states the
  * driver computes range-trimmed per-group CIs with the round-decayed
  * error budget δₖ = (6/π²)·δ/k², the Theorem-3 online N⁺, and the running
  * intersection — stopping as soon as the stopping condition holds. Null
  * values are skipped, as by SQL AVG; a group with no non-null value in
  * the prefix has no interval.
  */
object OptStopSpark {

  def run(
      scrambled: DataFrame,
      valueCol: String,
      groupCols: Seq[String],
      bounder: MomentBounder,
      a: Double,
      b: Double,
      delta: Double,
      stop: StopCondition,
      numViewsUpper: Int,
      initialPrefix: Long = 40000L,
      growth: Double = 2.0,
      maxRounds: Int = 64): OptStopSparkResult = {
    require(numViewsUpper >= 1, "numViewsUpper must be >= 1")
    require(growth > 1.0, "growth must exceed 1")
    require(maxRounds >= 1, "maxRounds must be >= 1")

    val totalRows    = scrambled.count()
    val deltaPerView = delta / numViewsUpper
    val aggCol       = CiAggregates.momentUdaf(F.col(valueCol)).as("state")

    // Stable gid assignment across rounds (first-seen order).
    val gidOf    = mutable.LinkedHashMap.empty[Seq[String], Int]
    val best     = mutable.Map.empty[Int, Interval]
    val prefixSt = mutable.Map.empty[Int, MomentState] // gid -> state over [0, r)
    val perRound = IndexedSeq.newBuilder[SparkRound]

    var lo     = 0L
    var r      = math.min(initialPrefix, totalRows)
    var rounds = 0
    var done   = false

    while (!done) {
      rounds += 1
      val deltaK    = OptStop.deltaAtRound(deltaPerView, rounds)
      val exactPass = r >= totalRows

      val slice = SparkScramble.slice(scrambled, lo, r)
      val grouped =
        if (groupCols.isEmpty) slice.agg(aggCol)
        else slice.groupBy(groupCols.map(F.col): _*).agg(aggCol)

      var values = 0L
      grouped.collect().foreach { row =>
        val st = row.getStruct(groupCols.length)
        val sliceSt = MomentState(st.getLong(0), st.getDouble(1), st.getDouble(2),
          st.getDouble(3), st.getDouble(4))
        // m = 0: the group has only NULLs in this slice, or this is the one
        // row an ungrouped aggregation returns for an empty slice.
        if (sliceSt.m > 0) {
          val key = groupCols.indices.map(i => Option(row.get(i)).map(_.toString).getOrElse("∅"))
          val gid = gidOf.getOrElseUpdate(key, gidOf.size)
          prefixSt(gid) = MomentState.merge(prefixSt.getOrElse(gid, MomentState.empty), sliceSt)
          values += sliceSt.m
        }
      }
      perRound += SparkRound(lo, r, values)

      val bounds: IndexedSeq[GroupBounds] = prefixSt.toIndexedSeq.sortBy(_._1).map { case (gid, st) =>
        val iv =
          if (exactPass) Interval(st.mean, st.mean)
          else {
            val nPlus = CountBound.nUpper(st.m, r, totalRows, deltaK, CountBound.DefaultAlpha)
            val raw   = bounder.interval(st, a, b, nPlus, CountBound.DefaultAlpha * deltaK)
            val prev  = best.getOrElse(gid, Interval(a, b))
            val inter = prev.intersect(raw)
            if (inter.lo <= inter.hi) inter else Interval(inter.midpoint, inter.midpoint)
          }
        best(gid) = iv
        GroupBounds(gid, st.m, st.mean, iv, exact = exactPass)
      }

      done = exactPass || stop.satisfied(bounds) || rounds >= maxRounds
      if (!done) {
        lo = r
        r = math.min(totalRows, math.ceil(r * growth).toLong)
      }
    }

    val exact    = r >= totalRows
    val keyOfGid = gidOf.map(_.swap)
    val groups = prefixSt.toIndexedSeq.sortBy(_._1).map { case (gid, st) =>
      SparkGroupCi(keyOfGid(gid), st, best(gid), exact)
    }
    OptStopSparkResult(groups, perRound.result())
  }
}
