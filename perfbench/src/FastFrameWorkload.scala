package repro.perfbench

import scala.collection.mutable.ArrayBuffer
import scala.util.Random

import repro.core.{Bounders, MomentBounder}
import repro.fastframe.{Engine, EngineConfig, FrameQuery, Metrics, QueryRun, Scramble, Strategy}
import repro.flights.{FlightsData, FlightsQueries, TableHarness}

/** The two FastFrame workloads. Both build the same store (Spark
  * generation -> `FlightsData.toStore` -> `Scramble.fromStore`) and run a
  * closed loop of approximate queries from one client thread, since the
  * engine is single-threaded.
  *
  *  - ff-early-stop: F-q1/2/4/9, which stop after a few rounds; per-query
  *    fixed cost dominates and the scan kernel does little.
  *  - ff-full-pass: F-q3/5/6/7/8 under Scan, ActiveSync and ActivePeek
  *    (paper Table 6), which read most of the scramble; the scan kernel,
  *    bitmap probes and bound recomputation dominate.
  */
object FastFrameWorkload {

  /** Scale factor: 1.5 M rows, 60 000 blocks of 25 rows. */
  val Sf: Double = 0.25
  /** Set-ups per run; `setup_s` is their median. */
  val SetupRepeats: Int = 3
  /** The warm-up repeats its pass until the JIT has had this long. */
  val WarmupSeconds: Double = 1.5

  final case class Item(query: FrameQuery, strategy: Strategy) {
    val label: String = s"${query.name}.$strategy"
  }

  /** Early-stop queries read a few rounds each, so their block counts
    * depend on where the scan starts: average over many start blocks.
    */
  def earlyStop(ctx: Ctx): Report =
    run(ctx, Seq(FlightsQueries.q1(), FlightsQueries.q2(), FlightsQueries.q4, FlightsQueries.q9)
      .map(Item(_, Strategy.ActivePeek)), startBlocks = 64)

  def fullPass(ctx: Ctx): Report = {
    import FlightsQueries._
    run(ctx, for {
      q <- Seq(q3(), q5, q6, q7, q8)
      s <- Seq(Strategy.Scan, Strategy.ActiveSync, Strategy.ActivePeek)
    } yield Item(q, s), startBlocks = 4)
  }

  /** One approximate query as the loop saw it. */
  private final case class Obs(item: Item, start: Int, ns: Long, m: Metrics, bounderCalls: Long, bounderNs: Long) {
    def sample: Sample = Sample(item.label, s"${item.label}@$start", Harness.ms(ns), item.query.name)
  }

  private def counts(m: Metrics): String =
    s"blocks=${m.blocksFetched},rows=${m.rowsProcessed},rounds=${m.rounds},probes=${m.bitmapProbes}"

  /** Every query runs from each of `startBlocks` seeded start blocks. */
  def run(ctx: Ctx, items: Seq[Item], startBlocks: Int): Report = {
    val report = new Report
    val tracer = new Tracer(ctx.trace)
    val spark  = ctx.spark

    var scramble: Scramble = null
    val setupSecs = (1 to SetupRepeats).map(_ => tracer.span("setup") {
      scramble = null // let the previous store be collected
      val t0    = System.nanoTime()
      val df    = tracer.span("flights.df")(FlightsData.df(spark, Sf, ctx.dataSeed))
      val store = tracer.span("flights.toStore")(FlightsData.toStore(df))
      scramble = tracer.span("fastframe.Scramble.fromStore")(
        Scramble.fromStore(store, Scramble.DefaultBlockSize, ctx.scrambleSeed))
      (System.nanoTime() - t0) / 1e9
    })
    val heapMb = Harness.retainedHeapMb()
    report.phase("setup")
    val scr    = scramble

    val queries = items.map(_.query).distinct
    val exact: Map[String, QueryRun] = queries.map { q =>
      q.name -> tracer.span("fastframe.Engine.runExact", q.name)(Engine.runExact(scr, q))
    }.toMap

    val det = new Determinism(report,
      ctx.outDir.resolve(s"counts/${ctx.workload}-seed${ctx.seed}-${ctx.buildId}.txt"))

    /** One timed Exact run: (query, nanoseconds, rows processed). */
    def exactOnce(q: FrameQuery): (String, Long, Long) = {
      val t0 = System.nanoTime()
      val r  = tracer.span("fastframe.Engine.runExact", q.name)(Engine.runExact(scr, q))
      val ns = System.nanoTime() - t0
      if (r.results != exact(q.name).results) report.mismatch(s"exact ${q.name}: answer changed between runs")
      det.record(s"exact|${q.name}", s"blocks=${r.metrics.blocksFetched},rows=${r.metrics.rowsProcessed}")
      (q.name, ns, r.metrics.rowsProcessed)
    }

    val rng    = new Random(ctx.startSeed)
    val starts = Vector.fill(startBlocks)(rng.nextInt(scr.numBlocks))

    def once(it: Item, start: Int, bounder: MomentBounder, counting: Option[CountingBounder]): Obs = {
      val cfg = EngineConfig(bounder = bounder, strategy = it.strategy, startBlock = start)
      var bounderCalls, bounderNs = 0L
      val t0 = System.nanoTime()
      val r = tracer.spanWith("fastframe.Engine.run", s"${it.label}@$start")(Engine.run(scr, it.query, cfg)) { r =>
        counting.foreach { c => val (n, t) = c.take(); bounderCalls = n; bounderNs = t }
        Map("blocks_fetched" -> r.metrics.blocksFetched, "rows_processed" -> r.metrics.rowsProcessed,
          "rounds" -> r.metrics.rounds.toLong, "bitmap_probes" -> r.metrics.bitmapProbes,
          "core.bounder_calls" -> bounderCalls, "core.bounder_ns" -> bounderNs)
      }
      val ns = System.nanoTime() - t0
      report.answer(TableHarness.isCorrect(it.query, r, exact(it.query.name)),
        s"${it.label} from block $start")
      det.record(s"${it.label}|$start", counts(r.metrics))
      Obs(it, start, ns, r.metrics, bounderCalls, bounderNs)
    }

    // Untimed warm-up: every query from every start block, and Exact,
    // repeated for WarmupSeconds so that the JIT compiles both paths. The
    // first pass's block counts are the per-pass work that every later
    // pass must repeat exactly.
    tracer.enabled = false
    def pass(): Seq[Obs] = for (s <- starts; it <- items) yield once(it, s, Bounders.BernsteinRT, None)
    val rowsRead = pass().map(_.m.rowsProcessed).sum.toDouble
    Harness.repeatFor(WarmupSeconds) { _ => pass(); queries.foreach(exactOnce) }
    report.phase("warmup")

    /** The timed loop, with the Exact baseline interleaved. */
    def timed(seconds: Double, bounder: MomentBounder,
              counting: Option[CountingBounder]): (Seq[Obs], Seq[(String, Long, Long)], Double) = {
      val obs   = ArrayBuffer.empty[Obs]
      val exObs = ArrayBuffer.empty[(String, Long, Long)]
      val secs = Harness.timedLoop(seconds) { (cycle, done) =>
        val start = starts(cycle % starts.length)
        items.foreach { it => val o = once(it, start, bounder, counting); obs += o; done(o.ns) }
      } { j => val e = exactOnce(queries(j % queries.size)); exObs += e; e._2 }
      (obs.toSeq, exObs.toSeq, secs)
    }

    val loopSeconds = if (ctx.trace) ctx.seconds / 2 else ctx.seconds
    val (plain, plainExact, plainSecs) = timed(loopSeconds, Bounders.BernsteinRT, None)
    report.phase("loop")
    val plainMs = plain.map(_.sample)

    if (!ctx.trace) {
      Harness.endToEnd(ctx, report, setupSecs, plainMs, plainSecs,
        exact = plainExact.map(o => Sample(o._1, o._1, Harness.ms(o._2), o._1)), rowsRead = rowsRead, heapMb = heapMb)
    } else {
      tracer.enabled = true
      val counting = new CountingBounder(Bounders.BernsteinRT)
      val (traced, exactObs, _) = tracer.span("loop.traced")(timed(loopSeconds, counting, Some(counting)))
      tracer.span("flights.gen.noop")(
        FlightsData.df(spark, Sf, ctx.dataSeed).write.format("noop").mode("overwrite").save())

      val L = report.layer
      L("flights.gen_ms")      = (Harness.ms(tracer.named("flights.gen.noop").head.nanos), "ms")
      L("flights.ingest_ms")   = (Harness.medianMs(tracer.named("flights.toStore")), "ms")
      L("fastframe.scramble_ms") = (Harness.medianMs(tracer.named("fastframe.Scramble.fromStore")), "ms")
      L("fastframe.store_mb")  = (storeMb(scr), "MiB")

      val n         = traced.size.toDouble
      val engineNs  = traced.map(_.ns).sum.toDouble
      val rows      = traced.map(_.m.rowsProcessed).sum.toDouble
      val blocks    = traced.map(_.m.blocksFetched).sum.toDouble
      val probes    = traced.map(_.m.bitmapProbes).sum.toDouble
      val bNs       = traced.map(_.bounderNs).sum.toDouble
      val exactBlks = traced.map(o => exact(o.item.query.name).metrics.blocksFetched).sum.toDouble
      L("fastframe.engine_ms")       = (engineNs / n / 1e6, "ms")
      L("fastframe.blocks_fetched")  = (blocks / n, "count")
      L("fastframe.rows_processed")  = (rows / n, "count")
      L("fastframe.rounds")          = (traced.map(_.m.rounds).sum / n, "count")
      L("fastframe.bitmap_probes")   = (probes / n, "count")
      L("fastframe.ns_per_row")      = (Stats.ratio(engineNs, rows), "ns")
      L("fastframe.exact_ns_per_row") =
        (Stats.ratio(exactObs.map(_._2).sum.toDouble, exactObs.map(_._3).sum.toDouble), "ns")
      L("fastframe.probes_per_block") = (Stats.ratio(probes, blocks), "ratio")
      L("fastframe.fetch_ratio")     = (Stats.ratio(blocks, exactBlks), "ratio")
      L("fastframe.non_bounder_ms")  = ((engineNs - bNs) / n / 1e6, "ms")
      items.foreach { it =>
        val mine = traced.filter(_.item == it)
        L(s"fastframe.engine_ms.${it.query.name}.${it.strategy}") =
          (Stats.median(mine.map(o => Harness.ms(o.ns))), "ms")
        L(s"fastframe.blocks_fetched.${it.query.name}.${it.strategy}") =
          (mine.map(_.m.blocksFetched).sum.toDouble / mine.size, "count")
      }
      L("core.bounder_calls") = (traced.map(_.bounderCalls).sum / n, "count")
      L("core.bounder_ms")    = (bNs / n / 1e6, "ms")
      L("core.bounder_share") = (Stats.ratio(bNs, engineNs), "ratio")
      L("trace.overhead") =
        (Harness.p50(traced.map(_.sample)) / Harness.p50(plainMs), "ratio")
      Harness.writeSpans(ctx, tracer)
    }

    if (ctx.trace) report.phase("traced")
    det.crossCheck()
    report.meta("sf")           = Json.num(Sf)
    report.meta("rows")         = Json.num(scr.numRows.toLong)
    report.meta("blocks")       = Json.num(scr.numBlocks.toLong)
    report.meta("start_blocks") = starts.mkString("[", ", ", "]")
    report.meta("counts_digest") = Json.str(det.digest)
    report
  }

  /** Column and bitmap bytes of a scramble, from its public sizes. */
  private def storeMb(scr: Scramble): Double = {
    val cols = scr.store.cats.values.map(_.codes.length * 4L).sum +
      scr.store.nums.values.map(_.values.length * 8L).sum
    val words   = (scr.numBlocks + 63L) / 64
    val bitmaps = scr.bitmaps.values.map(bm => bm.cardinality * words * 8L).sum
    (cols + bitmaps) / 1048576.0
  }
}
