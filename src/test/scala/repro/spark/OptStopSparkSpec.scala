package repro.spark

import repro.SparkSpec
import repro.core.{Bounders, MomentState}
import repro.fastframe.StopCondition
import repro.flights.FlightsData
import org.apache.spark.sql.functions._

/** Distributed optional stopping (Algorithm 5 as Spark rounds). */
class OptStopSparkSpec extends SparkSpec {

  private lazy val flights = FlightsData.df(spark, sf = 0.005).cache()
  private lazy val scr     = SparkScramble.scramble(flights, seed = 21L).cache()
  private lazy val range   = {
    val r = flights.agg(min("DepDelay"), max("DepDelay")).head
    (r.getDouble(0), r.getDouble(1))
  }

  test("HAVING-style run matches the exact partition (F-q2 semantics)") {
    val (a, b) = range
    val res = OptStopSpark.run(
      scr, "DepDelay", Seq("Airline"), Bounders.BernsteinRT, a, b,
      delta = 1e-15, stop = StopCondition.ThresholdSide(0.0), numViewsUpper = 12)
    val exact = flights.groupBy("Airline").agg(avg("DepDelay").as("m")).collect()
      .map(r => r.getString(0) -> r.getDouble(1)).toMap
    assert(res.groups.size === 12)
    res.groups.foreach { g =>
      val mu = exact(g.key.head)
      assert(g.iv.contains(mu) || g.exact, s"${g.key}: ${g.iv} vs $mu")
      // The side of the threshold must be decided correctly.
      if (g.iv.lo > 0) assert(mu > 0)
      if (g.iv.hi < 0) assert(mu < 0)
    }
    assert(res.finalPrefix <= flights.count())
    assert(res.rounds >= 1)
    assert(res.totalRowsRead >= res.finalPrefix)
  }

  test("relaxed delta and an easy threshold terminate before reading everything") {
    // Every airline mean is far above -5; a moderate delta lets the run
    // stop on a prefix (at 30k rows the paper's 1e-15 needs ~all of it).
    val (a, b) = range
    val res = OptStopSpark.run(
      scr, "DepDelay", Seq("Airline"), Bounders.BernsteinRT, a, b,
      delta = 0.01, stop = StopCondition.ThresholdSide(-5.0), numViewsUpper = 12,
      initialPrefix = 5000)
    assert(res.finalPrefix < flights.count())
    assert(res.groups.forall(g => g.iv.lo > -5.0 || g.exact))
  }

  test("ungrouped run converges on the global mean") {
    val (a, b) = range
    val res = OptStopSpark.run(
      scr, "DepDelay", Nil, Bounders.BernsteinRT, a, b,
      delta = 1e-6, stop = StopCondition.AbsoluteWidth(2.0), numViewsUpper = 1,
      initialPrefix = 5000)
    val mu = flights.agg(avg("DepDelay")).head.getDouble(0)
    assert(res.groups.size === 1)
    val g = res.groups.head
    assert(g.iv.contains(mu) || g.exact)
    assert(g.iv.width < 2.0 || g.exact)
  }

  test("exhausting the scramble yields exact groups") {
    val (a, b) = range
    val res = OptStopSpark.run(
      scr, "DepDelay", Seq("Airline"), Bounders.Hoeffding, a, b,
      delta = 1e-15, stop = StopCondition.AbsoluteWidth(1e-9), numViewsUpper = 12,
      initialPrefix = flights.count())
    assert(res.groups.forall(_.exact))
    assert(res.rounds === 1)
    val exact = flights.groupBy("Airline").agg(avg("DepDelay").as("m")).collect()
      .map(r => r.getString(0) -> r.getDouble(1)).toMap
    res.groups.foreach(g => assert(math.abs(g.mean - exact(g.key.head)) < 1e-9))
  }

  test("rounds grow the prefix geometrically") {
    val (a, b) = range
    val res = OptStopSpark.run(
      scr, "DepDelay", Seq("Airline"), Bounders.Hoeffding, a, b,
      delta = 1e-15, stop = StopCondition.AbsoluteWidth(1e-9), numViewsUpper = 12,
      initialPrefix = 1000, growth = 2.0, maxRounds = 3)
    assert(res.rounds === 3)
    assert(res.finalPrefix === 4000L)
    assert(res.totalRowsRead === 4000L)
  }

  test("merged slice states equal the aggregation of the final prefix") {
    val (a, b) = range
    val res = OptStopSpark.run(
      scr, "DepDelay", Seq("Airline"), Bounders.Hoeffding, a, b,
      delta = 1e-15, stop = StopCondition.AbsoluteWidth(1e-9), numViewsUpper = 12,
      initialPrefix = 1000, growth = 2.0, maxRounds = 4)
    assert(res.rounds === 4)
    assert(res.totalRowsRead === res.finalPrefix)
    // Contiguous slices, each fully aggregated (the data has no NULLs).
    assert(res.perRound.map(_.lo) === 0L +: res.perRound.init.map(_.hi))
    res.perRound.foreach(s => assert(s.values === s.hi - s.lo, s.toString))

    val reference = SparkScramble.prefix(scr, res.finalPrefix)
      .groupBy("Airline").agg(CiAggregates.momentUdaf(col("DepDelay")).as("s"))
      .collect()
      .map { r =>
        val st = r.getStruct(1)
        r.getString(0) -> MomentState(st.getLong(0), st.getDouble(1), st.getDouble(2),
          st.getDouble(3), st.getDouble(4))
      }.toMap
    def close(x: Double, y: Double) = math.abs(x - y) <= 1e-9 * math.max(1.0, math.abs(y))
    assert(res.groups.map(_.key.head).toSet === reference.keySet)
    res.groups.foreach { g =>
      val ref = reference(g.key.head)
      assert(g.state.m === ref.m)
      assert(close(g.state.mean, ref.mean), s"${g.key}: ${g.state} vs $ref")
      assert(close(g.state.m2, ref.m2), s"${g.key}: ${g.state} vs $ref")
      assert(close(g.state.min, ref.min) && close(g.state.max, ref.max))
    }
  }

  /** A pre-scrambled relation of 1000 rows: group "Z" at positions 0..49
    * only, then "A" and "B" alternating; v = pos mod 7, NULL where `isNull`.
    */
  private def smallScramble(isNull: Long => Boolean) = {
    val rows = (0L until 1000L).map { p =>
      (if (p < 50) "Z" else if (p % 2 == 0) "A" else "B",
        if (isNull(p)) None else Some((p % 7).toDouble), p)
    }
    spark.createDataFrame(rows).toDF("g", "v", SparkScramble.PosCol)
  }

  private def runSmall(df: org.apache.spark.sql.DataFrame) = OptStopSpark.run(
    df, "v", Seq("g"), Bounders.BernsteinRT, 0.0, 6.0,
    delta = 1e-3, stop = StopCondition.AbsoluteWidth(1e-9), numViewsUpper = 3,
    initialPrefix = 100, growth = 2.0, maxRounds = 3)

  test("a group seen only in the first slice keeps its state and interval") {
    val res = runSmall(smallScramble(_ => false))
    assert(res.rounds === 3)
    assert(res.finalPrefix === 400L)
    val z = res.groups.find(_.key === Seq("Z"))
    assert(z.isDefined, s"Z dropped: ${res.groups}")
    assert(z.get.m === 50L)
    assert(math.abs(z.get.mean - (0L until 50L).map(_ % 7).sum / 50.0) < 1e-12)
    assert(!z.get.iv.lo.isInfinite && !z.get.iv.hi.isInfinite && z.get.iv.lo <= z.get.iv.hi)
    assert(z.get.iv.contains(z.get.mean))
  }

  test("NULL values are skipped as by SQL AVG") {
    // Every third "A" row is NULL; "B" has no value before position 400.
    val df  = smallScramble(p => (p >= 50 && p % 6 == 0) || (p % 2 == 1 && p >= 50 && p < 400))
    val res = runSmall(df)
    val exact = SparkScramble.prefix(df, res.finalPrefix).groupBy("g")
      .agg(count("v").as("c"), avg("v")).filter(col("c") > 0).collect()
      .map(r => r.getString(0) -> (r.getLong(1), r.getDouble(2))).toMap
    assert(res.groups.map(_.key.head).toSet === Set("A", "Z"))
    res.groups.foreach { g =>
      val (cnt, mean) = exact(g.key.head)
      assert(g.m === cnt)
      assert(math.abs(g.mean - mean) < 1e-12, s"${g.key}: ${g.mean} vs $mean")
    }
    assert(res.totalRowsRead === res.finalPrefix)
    assert(res.perRound.map(_.values).sum === res.groups.map(_.m).sum)
  }
}
