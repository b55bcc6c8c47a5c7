package repro.perfbench

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{avg, max, min}
import org.apache.spark.storage.StorageLevel

import repro.core.{Bounders, MomentBounder}
import repro.fastframe.StopCondition
import repro.flights.FlightsData
import repro.spark.{OptStopSpark, OptStopSparkResult, SparkScramble}

/** spark-optstop: the paper's Algorithm 5 as Spark rounds over a growing
  * scramble prefix (`OptStopSpark.run`), on a scramble built by
  * `SparkScramble.scramble`. The only workload that exercises the `spark`
  * module; it never builds a FastFrame store. S-q2 and S-q9 stop on a
  * short prefix, S-q5 and S-q8 grow to the whole relation.
  */
object SparkWorkload {

  /** Scale factor: 1.5 M rows. */
  val Sf: Double = 0.25
  /** Partitions of the generated data and of every shuffle. */
  val Partitions: Int = 8
  val SetupRepeats: Int = 3
  val Delta: Double = 1e-15

  final case class SQuery(name: String, groupCol: String, stop: StopCondition, views: Int)

  val Queries: Seq[SQuery] = Seq(
    SQuery("S-q2", "Airline", StopCondition.ThresholdSide(0.0), FlightsData.Airlines.size),
    SQuery("S-q9", "Airline", StopCondition.TopKSeparated(1, largest = true), FlightsData.Airlines.size),
    SQuery("S-q5", "Origin", StopCondition.ThresholdSide(0.0), FlightsData.Airports.size),
    SQuery("S-q8", "Origin", StopCondition.TopKSeparated(1, largest = true), FlightsData.Airports.size))

  private final case class Obs(q: SQuery, ns: Long, res: OptStopSparkResult, bounderCalls: Long, bounderNs: Long) {
    def sample: Sample = Sample(q.name, q.name, Harness.ms(ns), q.groupCol)
  }

  /** Every exact group present, every CI covering its exact mean unless the
    * group is exact, and the HAVING side / top-1 answer equal to Exact's.
    */
  private def isCorrect(q: SQuery, res: OptStopSparkResult, exact: Map[String, Double]): Boolean = {
    val got = res.groups.map(g => g.key.head -> g).toMap
    val present = got.keySet == exact.keySet
    val covered = res.groups.forall(g => g.exact || exact.get(g.key.head).exists(g.iv.contains))
    val answer = q.stop match {
      case StopCondition.ThresholdSide(v) =>
        val above = res.groups.filter(g => g.iv.lo > v || (g.exact && g.mean > v)).map(_.key.head).toSet
        val below = res.groups.filter(g => g.iv.hi < v || (g.exact && g.mean < v)).map(_.key.head).toSet
        above == exact.filter(_._2 > v).keySet && below == exact.filter(_._2 < v).keySet
      case StopCondition.TopKSeparated(1, true) =>
        res.groups.nonEmpty && res.groups.maxBy(_.mean).key.head == exact.maxBy(_._2)._1
      case other => throw new IllegalArgumentException(s"no check for $other")
    }
    present && covered && answer
  }

  def run(ctx: Ctx): Report = {
    val report = new Report
    val tracer = new Tracer(ctx.trace)
    val spark  = ctx.spark

    var scr: DataFrame = null
    var range = (0.0, 0.0)
    val setupSecs = (1 to SetupRepeats).map(_ => tracer.span("setup") {
      if (scr != null) scr.unpersist(blocking = true)
      val t0 = System.nanoTime()
      val df = tracer.span("flights.df")(FlightsData.df(spark, Sf, ctx.dataSeed))
      scr = tracer.span("spark.SparkScramble.scramble") {
        val s = SparkScramble.scramble(df, ctx.scrambleSeed).persist(StorageLevel.MEMORY_ONLY)
        s.count()
        s
      }
      val r = scr.agg(min("DepDelay"), max("DepDelay")).head()
      range = (r.getDouble(0), r.getDouble(1))
      (System.nanoTime() - t0) / 1e9
    })
    val heapMb = Harness.retainedHeapMb()
    report.phase("setup")
    val (a, b) = range

    def exactAvg(groupCol: String): Map[String, Double] =
      tracer.span("spark.exact_groupby", groupCol) {
        scr.groupBy(groupCol).agg(avg("DepDelay")).collect()
          .map(r => r.getString(0) -> r.getDouble(1)).toMap
      }
    val groupCols = Queries.map(_.groupCol).distinct
    val exact     = groupCols.map(c => c -> exactAvg(c)).toMap

    /** One timed exact `groupBy`, as a sample of its group column. */
    def exactOnce(c: String): Sample = {
      val t0 = System.nanoTime()
      val e  = exactAvg(c)
      val ns = System.nanoTime() - t0
      if (e != exact(c)) report.mismatch(s"exact groupBy($c) changed between runs")
      Sample(c, c, Harness.ms(ns), c)
    }

    val det = new Determinism(report,
      ctx.outDir.resolve(s"counts/${ctx.workload}-seed${ctx.seed}-${ctx.buildId}.txt"))

    def once(q: SQuery, bounder: MomentBounder, counting: Option[CountingBounder]): Obs = {
      var bounderCalls, bounderNs = 0L
      val t0 = System.nanoTime()
      val res = tracer.spanWith("spark.OptStopSpark.run", q.name) {
        JobCounter.counted(spark.sparkContext)(
          OptStopSpark.run(scr, "DepDelay", Seq(q.groupCol), bounder, a, b, Delta, q.stop, q.views))
      } { res =>
        counting.foreach { c => val (n, t) = c.take(); bounderCalls = n; bounderNs = t }
        Map("final_prefix" -> res.finalPrefix, "rows_read" -> res.totalRowsRead,
          "rounds" -> res.rounds.toLong, "core.bounder_calls" -> bounderCalls,
          "core.bounder_ns" -> bounderNs)
      }
      val ns = System.nanoTime() - t0
      report.answer(isCorrect(q, res, exact(q.groupCol)), s"${q.name}: ${res.groups}")
      det.record(q.name, s"final_prefix=${res.finalPrefix},rounds=${res.rounds},rows_read=${res.totalRowsRead}")
      Obs(q, ns, res, bounderCalls, bounderNs)
    }

    tracer.enabled = false
    val warm     = Queries.map(q => once(q, Bounders.BernsteinRT, None))
    val rowsRead = warm.map(_.res.totalRowsRead).sum.toDouble
    report.phase("warmup")

    /** The timed loop, with the exact `groupBy` interleaved. */
    def timed(seconds: Double, bounder: MomentBounder,
              counting: Option[CountingBounder]): (Seq[Obs], Seq[Sample], Double) = {
      val obs   = ArrayBuffer.empty[Obs]
      val exObs = ArrayBuffer.empty[Sample]
      val secs = Harness.timedLoop(seconds) { (_, done) =>
        Queries.foreach { q => val o = once(q, bounder, counting); obs += o; done(o.ns) }
      } { j => val e = exactOnce(groupCols(j % groupCols.size)); exObs += e; (e.ms * 1e6).toLong }
      (obs.toSeq, exObs.toSeq, secs)
    }

    val loopSeconds = if (ctx.trace) ctx.seconds / 2 else ctx.seconds
    val (plain, plainExact, plainSecs) = timed(loopSeconds, Bounders.BernsteinRT, None)
    report.phase("loop")
    val plainMs = plain.map(_.sample)

    if (!ctx.trace) {
      Harness.endToEnd(ctx, report, setupSecs, plainMs, plainSecs,
        exact = plainExact, rowsRead = rowsRead, heapMb = heapMb)
    } else {
      tracer.enabled = true
      val counting = new CountingBounder(Bounders.BernsteinRT)
      val jobsCounter = new JobCounter
      spark.sparkContext.addSparkListener(jobsCounter)
      val before = jobsCounter.settled()
      val (traced, _, _) = tracer.spanWith("loop.traced")(timed(loopSeconds, counting, Some(counting))) { _ =>
        val after = jobsCounter.settled()
        Map("spark.jobs" -> (after._1 - before._1), "spark.tasks" -> (after._2 - before._2),
          "spark.task_ms" -> (after._3 - before._3))
      }
      spark.sparkContext.removeSparkListener(jobsCounter)
      tracer.span("flights.gen.noop")(
        FlightsData.df(spark, Sf, ctx.dataSeed).write.format("noop").mode("overwrite").save())

      val L = report.layer
      val n = traced.size.toDouble
      val loopCounts = tracer.named("loop.traced").head.counts
      L("flights.gen_ms")   = (Harness.ms(tracer.named("flights.gen.noop").head.nanos), "ms")
      L("spark.scramble_ms") = (Harness.medianMs(tracer.named("spark.SparkScramble.scramble")), "ms")
      Queries.foreach { q =>
        L(s"spark.optstop_ms.${q.name}") =
          (Stats.median(traced.filter(_.q == q).map(o => Harness.ms(o.ns))), "ms")
      }
      val prefix = traced.map(_.res.finalPrefix).sum.toDouble
      val read   = traced.map(_.res.totalRowsRead).sum.toDouble
      L("spark.rounds")       = (traced.map(_.res.rounds).sum / n, "count")
      L("spark.final_prefix") = (prefix / n, "count")
      L("spark.rows_read")    = (read / n, "count")
      L("spark.reread_ratio") = (Stats.ratio(read, prefix), "ratio")
      L("spark.jobs")         = (loopCounts("spark.jobs") / n, "count")
      L("spark.tasks")        = (loopCounts("spark.tasks") / n, "count")
      L("spark.task_ms")      = (loopCounts("spark.task_ms") / n, "ms")
      L("spark.exact_groupby_ms") = (Harness.medianMs(tracer.named("spark.exact_groupby")), "ms")
      val bNs = traced.map(_.bounderNs).sum.toDouble
      L("core.bounder_calls") = (traced.map(_.bounderCalls).sum / n, "count")
      L("core.bounder_ms")    = (bNs / n / 1e6, "ms")
      L("core.bounder_share") = (Stats.ratio(bNs, traced.map(_.ns).sum.toDouble), "ratio")
      L("trace.overhead") =
        (Harness.p50(traced.map(_.sample)) / Harness.p50(plainMs), "ratio")
      Harness.writeSpans(ctx, tracer)
    }

    if (ctx.trace) report.phase("traced")
    det.crossCheck()
    scr.unpersist(blocking = true)
    report.meta("sf")    = Json.num(Sf)
    report.meta("range") = s"[${Json.num(a)}, ${Json.num(b)}]"
    report.meta("counts_digest") = Json.str(det.digest)
    report
  }
}
