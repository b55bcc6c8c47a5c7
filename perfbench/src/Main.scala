package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.SparkSession

/** Everything a workload needs from the command line and the launcher.
  * All seeds derive from the one `--seed`, so the same seed gives the same
  * data, scramble and start blocks.
  */
final case class Ctx(
    workload: String,
    seed: Long,
    seconds: Double,
    trace: Boolean,
    spark: SparkSession,
    outDir: Path,
    buildId: String) {

  val dataSeed: Long     = mix(seed, 1)
  val scrambleSeed: Long = mix(seed, 2)
  val startSeed: Long    = mix(seed, 3)

  /** Non-negative SplitMix64-style mix, kept below 2^40 so that the
    * generator's `rand(seed + k)` offsets cannot overflow.
    */
  private def mix(s: Long, salt: Long): Long = {
    var z = s * 0x9E3779B97F4A7C15L + salt * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    (z ^ (z >>> 31)) & ((1L << 40) - 1)
  }
}

/** One timed call. `work` names the unit of work (query, configuration
  * and start block), so that calls with the same `work` do the same work.
  * `base` names the exact baseline call that answers the same question.
  */
final case class Sample(query: String, work: String, ms: Double, base: String)

/** What a workload run reports. `e2e` is filled from the untraced timed
  * loop, `layer` from the traced one; both map name -> (value, unit).
  */
final class Report {
  var attempted: Long = 0L
  var failed: Long    = 0L
  private val mismatches = mutable.ArrayBuffer.empty[String]
  val e2e   = mutable.LinkedHashMap.empty[String, (Double, String)]
  val layer = mutable.LinkedHashMap.empty[String, (Double, String)]
  val meta  = mutable.LinkedHashMap.empty[String, String]

  /** Count one checked answer; a wrong one is reported, never retried. */
  def answer(ok: Boolean, what: => String): Unit = {
    attempted += 1
    if (!ok) {
      failed += 1
      Console.err.println(s"[perfbench] WRONG ANSWER: $what")
    }
  }

  def mismatch(what: String): Unit = {
    mismatches += what
    Console.err.println(s"[perfbench] DETERMINISM MISMATCH: $what")
  }

  def deterministic: Boolean = mismatches.isEmpty

  private val phases = mutable.ArrayBuffer.empty[(String, Double)]

  /** Mark the end of a phase of the run, in seconds since the JVM started. */
  def phase(name: String): Unit =
    phases += name -> (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3

  def phasesJson: String = Json.obj(phases.toSeq.map { case (k, v) => k -> Json.num(v) })
}

/** Per-(query, config, start) work counts that must repeat exactly:
  * between passes of one run, and between runs of the same seed and build
  * (compared through a file under the build directory).
  */
final class Determinism(report: Report, file: Path) {
  private val seen = mutable.LinkedHashMap.empty[String, String]

  def record(key: String, counts: String): Unit = seen.get(key) match {
    case None                     => seen(key) = counts
    case Some(c) if c == counts   => ()
    case Some(c)                  => report.mismatch(s"$key: $c then $counts within one run")
  }

  /** Hash of all recorded counts, for the run metadata. */
  def digest: String = {
    val md = java.security.MessageDigest.getInstance("SHA-256")
    seen.toSeq.sortBy(_._1).foreach { case (k, v) => md.update(s"$k=$v\n".getBytes(StandardCharsets.UTF_8)) }
    md.digest().take(8).map(b => f"$b%02x").mkString
  }

  /** Compare with the counts of an earlier run of the same seed, or store
    * them for later runs.
    */
  def crossCheck(): Unit = {
    val lines = seen.toSeq.sortBy(_._1).map { case (k, v) => s"$k=$v" }
    if (Files.exists(file)) {
      val before = Files.readAllLines(file).asScala.toSeq
      if (before != lines) {
        val diff = before.diff(lines).take(5) ++ lines.diff(before).take(5)
        report.mismatch(s"counts differ from an earlier run of this seed (${file.getFileName}): " +
          diff.mkString("; "))
      }
    } else {
      Files.createDirectories(file.getParent)
      Files.write(file, lines.asJava)
    }
  }
}

object Harness {

  /** Used heap after an explicit full collection, in MiB. */
  def retainedHeapMb(): Double = {
    (1 to 3).foreach(_ => System.gc())
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }

  /** Share of the approximate queries' time that a timed loop also spends
    * on the exact baseline.
    */
  val ExactShare: Double = 0.25

  /** Run `cycle` repeatedly for about `seconds`, and at least twice, so
    * that a median never rests on one sample per query. A cycle is never
    * cut short, so every cycle's queries are equally represented; the loop
    * stops at the cycle end nearest to the deadline, judged by the length
    * of the last cycle.
    */
  def repeatFor(seconds: Double)(cycle: Int => Unit): Unit = {
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    var i = 0
    var last = 0L
    var now  = System.nanoTime()
    while (i < 2 || now + last / 2 < deadline) {
      cycle(i)
      i += 1
      val t = System.nanoTime()
      last = t - now
      now = t
    }
  }

  /** The timed loop: `cycle(i, done)` runs the i-th cycle of approximate
    * queries and reports each query's nanoseconds to `done`. After each
    * query the loop calls `exact(j)`, the j-th exact baseline call, which
    * returns its own nanoseconds, until the exact time reaches `ExactShare`
    * of the approximate time. The exact calls are thus spread evenly over
    * the loop and see the same machine load as the queries they are
    * compared with. Returns the wall seconds of the loop outside the exact
    * calls.
    */
  def timedLoop(seconds: Double)(cycle: (Int, Long => Unit) => Unit)(exact: Int => Long): Double = {
    val t0 = System.nanoTime()
    var approxNs, exactNs = 0L
    var j = 0
    def done(ns: Long): Unit = {
      approxNs += ns
      while (exactNs < ExactShare * approxNs) {
        exactNs += exact(j)
        j += 1
      }
    }
    repeatFor(seconds)(cycle(_, done))
    (System.nanoTime() - t0 - exactNs) / 1e9
  }

  def ms(ns: Long): Double = ns / 1e6

  def medianMs(spans: Seq[Span]): Double = Stats.median(spans.map(s => ms(s.nanos)))

  /** Typical latency of a mix: the geometric mean, over the mix's units of
    * work, of each unit's median latency. A pooled median of a mix of fast
    * and slow queries sits in the gap between them and jumps from run to
    * run; so does the median of one query whose round count differs
    * between start blocks.
    */
  def p50(samples: Seq[Sample]): Double =
    Stats.geomean(samples.groupBy(_.work).values.map(xs => Stats.median(xs.map(_.ms))).toSeq)

  /** The end-to-end metrics every workload reports, from its untraced run. */
  def endToEnd(ctx: Ctx, report: Report, setupSecs: Seq[Double], queries: Seq[Sample], loopSecs: Double,
               exact: Seq[Sample], rowsRead: Double, heapMb: Double): Unit = {
    val E = report.e2e
    writeSamples(ctx, queries)
    // Each approximate latency as a share of the median latency of its
    // exact baseline, timed in the same loop.
    val exactMs  = exact.groupBy(_.base).map { case (b, xs) => b -> Stats.median(xs.map(_.ms)) }
    val relative = queries.map(x => x.copy(ms = x.ms / exactMs(x.base)))
    E("setup_s")             = (Stats.median(setupSecs), "s")
    E("query_vs_exact.p50")  = (p50(relative), "ratio")
    E("rows_read")           = (rowsRead, "count")
    E("correct_answer_rate") =
      ((report.attempted - report.failed).toDouble / math.max(1L, report.attempted), "ratio")
    E("retained_heap_mb")    = (heapMb, "MiB")
    report.meta("queries_timed") = Json.num(queries.size.toLong)
    report.meta("exact_timed")   = Json.num(exact.size.toLong)
    report.meta("query_ms_p50")  = Json.num(p50(queries))
    report.meta("query_ms_p90")  = Json.num(Stats.quantile(queries.map(_.ms), 0.9))
    report.meta("query_vs_exact_p90") = Json.num(Stats.quantile(relative.map(_.ms), 0.9))
    report.meta("queries_per_s") = Json.num(queries.size / loopSecs)
    report.meta("exact_ms_p50")  = Json.num(p50(exact))
    report.meta("query_p50_ms")  = Json.obj(queries.groupBy(_.query).toSeq.sortBy(_._1).map {
      case (q, xs) => q -> Json.num(p50(xs))
    })
    report.meta("exact_p50_ms")  = Json.obj(exactMs.toSeq.sortBy(_._1).map { case (b, v) => b -> Json.num(v) })
    report.meta("setup_s_all")   = setupSecs.mkString("[", ", ", "]")
  }

  /** Write every timed latency, in loop order, as `work<TAB>ms` lines. */
  def writeSamples(ctx: Ctx, samples: Seq[Sample]): Unit = {
    val file = ctx.outDir.resolve(s"samples/${ctx.workload}-seed${ctx.seed}.tsv")
    Files.createDirectories(file.getParent)
    Files.write(file, samples.map(x => s"${x.work}\t${x.ms}").asJava)
  }

  /** Write the recorded spans, one JSON object per line. */
  def writeSpans(ctx: Ctx, tracer: Tracer): Unit = {
    val file = ctx.outDir.resolve(s"trace/${ctx.workload}-seed${ctx.seed}.jsonl")
    Files.createDirectories(file.getParent)
    Files.write(file, tracer.toJsonLines.toSeq.asJava)
    Console.err.println(s"[perfbench] ${tracer.all.size} spans written to $file")
  }
}

object Main {

  private val Workloads: Map[String, Ctx => Report] = Map(
    "ff-early-stop" -> FastFrameWorkload.earlyStop,
    "ff-full-pass"  -> FastFrameWorkload.fullPass,
    "spark-optstop" -> SparkWorkload.run)

  private def usage(msg: String): Nothing = {
    Console.err.println(s"[perfbench] $msg")
    Console.err.println("usage: --workload <" + Workloads.keys.toSeq.sorted.mkString("|") +
      "> --seed <n> --seconds <s> --trace <0|1>")
    sys.exit(2)
  }

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => usage(s"bad argument ${other.mkString(" ")}")
    }.toMap
    def opt(k: String) = opts.getOrElse(k, usage(s"missing --$k"))
    val workload = opt("workload")
    val run      = Workloads.getOrElse(workload, usage(s"unknown workload '$workload'"))
    val seed     = opt("seed").toLong
    val seconds  = opt("seconds").toDouble
    val trace    = opt("trace") match {
      case "0" => false
      case "1" => true
      case t   => usage(s"--trace must be 0 or 1, not $t")
    }
    require(seconds > 0, "--seconds must be positive")

    val outDir  = Paths.get(sys.props.getOrElse("perfbench.out", ".bench_build/perfbench")).toAbsolutePath
    val buildId = sys.props.getOrElse("perfbench.build", "unknown")
    val nproc   = Runtime.getRuntime.availableProcessors
    val spark = SparkSession.builder
      .master(s"local[$nproc]")
      .appName(s"perfbench-$workload")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      // Generated data depends on the partitioning of spark.range, so fix
      // it instead of inheriting the core count.
      .config("spark.default.parallelism", SparkWorkload.Partitions.toString)
      .config("spark.sql.shuffle.partitions", SparkWorkload.Partitions.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.local.dir", outDir.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", outDir.resolve("spark-warehouse").toString)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")

    val ctx = Ctx(workload, seed, seconds, trace, spark, outDir, buildId)
    val report =
      try run(ctx)
      catch {
        case e: Throwable =>
          e.printStackTrace()
          spark.stop()
          sys.exit(1)
      }
    spark.stop()

    val heapMax = Runtime.getRuntime.maxMemory / 1048576
    val meta = Seq(
      "workload" -> Json.str(workload), "seed" -> Json.num(seed),
      "data_seed" -> Json.num(ctx.dataSeed), "scramble_seed" -> Json.num(ctx.scrambleSeed),
      "start_seed" -> Json.num(ctx.startSeed), "seconds" -> Json.num(seconds),
      "trace" -> Json.bool(trace), "nproc" -> Json.num(nproc.toLong),
      "jvm" -> Json.str(s"${sys.props("java.vm.name")} ${sys.props("java.runtime.version")}"),
      "heap_max_mb" -> Json.num(heapMax), "spark" -> Json.str(spark.version),
      "git_commit" -> Json.str(sys.props.getOrElse("perfbench.commit", "unknown")),
      "build" -> Json.str(buildId), "phases_s" -> report.phasesJson) ++ report.meta.toSeq
    println(Json.obj(Seq("meta" -> Json.obj(meta))))

    val metrics = (if (trace) report.layer else report.e2e).toSeq.map { case (k, (v, unit)) =>
      k -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(unit)))
    }
    println(Json.obj(Seq(
      "correct"   -> Json.bool(report.failed == 0 && report.deterministic),
      "attempted" -> Json.num(report.attempted),
      "failed"    -> Json.num(report.failed),
      "metrics"   -> Json.obj(metrics))))
    System.out.flush()
    sys.exit(0) // do not wait for stray non-daemon threads
  }
}
