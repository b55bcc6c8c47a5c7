package repro.bench

import repro.SparkSpec
import repro.core.Bounders
import repro.fastframe.StopCondition
import repro.flights.FlightsData
import repro.spark.{OptStopSpark, SparkScramble}
import org.apache.spark.sql.functions._

/** The distributed-dataflow rendition of the paper's pipeline (no direct
  * paper table; recorded in EXPERIMENTS.md): Algorithm-5 rounds as Spark
  * aggregations of the slices that grow the scramble prefix, measuring how
  * much data the CI-driven early stop needs vs. the full relation.
  */
class SparkOptStopBench extends SparkSpec {

  test("Spark optional stopping: F-q2-style HAVING over the scramble") {
    val sf      = math.min(BenchConfig.sf, 0.1) // one Spark job per round; keep runs short
    val flights = FlightsData.df(spark, sf).cache()
    val total   = flights.count()
    val scr     = SparkScramble.scramble(flights, seed = 33L).cache()
    scr.count() // materialize

    val r      = flights.agg(min("DepDelay"), max("DepDelay")).head
    val (a, b) = (r.getDouble(0), r.getDouble(1))

    val t0 = System.nanoTime()
    val res = OptStopSpark.run(
      scr, "DepDelay", Seq("Airline"), Bounders.BernsteinRT, a, b,
      delta = 1e-15, stop = StopCondition.ThresholdSide(0.0),
      numViewsUpper = 12, initialPrefix = 40000L)
    val approxMs = (System.nanoTime() - t0) / 1e6

    val t1 = System.nanoTime()
    val exact = flights.groupBy("Airline").agg(avg("DepDelay").as("m")).collect()
      .map(x => x.getString(0) -> x.getDouble(1)).toMap
    val exactMs = (System.nanoTime() - t1) / 1e6

    println("== Spark-native optional stopping (distributed Algorithm 5) ==")
    println(f"rows total=$total%d  prefix needed=${res.finalPrefix}%d " +
      f"(${100.0 * res.finalPrefix / total}%.1f%%)  rounds=${res.rounds}%d " +
      f"rows read=${res.totalRowsRead}%d")
    println(f"wall: optstop=${approxMs}%.0f ms  exact groupBy=${exactMs}%.0f ms")
    res.groups.sortBy(_.key.head).foreach { g =>
      println(f"  ${g.key.head}%-4s m=${g.m}%8d  mean=${g.mean}%7.2f  " +
        f"iv=[${g.iv.lo}%7.2f, ${g.iv.hi}%7.2f]  exact=${exact(g.key.head)}%7.2f")
    }

    // Correctness: every CI covers the exact mean, and the HAVING
    // partition (all airlines above 0 by construction) is decided right.
    res.groups.foreach { g =>
      assert(g.iv.contains(exact(g.key.head)) || g.exact)
      assert(g.iv.lo > 0 || g.exact, s"${g.key} not determined above 0")
    }
    assert(res.groups.size === 12)
    assert(res.finalPrefix <= total)
  }
}
