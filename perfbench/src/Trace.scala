package repro.perfbench

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}

import repro.core.{MomentBounder, MomentState}

/** One recorded span: a call into a layer, timed from the benchmark side.
  * `parent` is the id of the enclosing span (-1 at top level); `counts`
  * holds counters measured at the same boundary (e.g. bounder calls made
  * inside one `Engine.run`).
  */
final case class Span(id: Int, parent: Int, name: String, label: String, startNs: Long,
                      endNs: Long, counts: Map[String, Long]) {
  def nanos: Long = endNs - startNs
}

/** In-memory span recorder. When disabled, `span` only evaluates its body,
  * so the timed (untraced) loop pays nothing but one branch per call.
  */
final class Tracer(var enabled: Boolean) {
  private val spans = ArrayBuffer.empty[Span]
  private var stack: List[Int] = Nil
  private var nextId = 0

  def span[T](name: String, label: String = "")(body: => T): T =
    spanWith(name, label)(body)(_ => Map.empty)

  /** Like `span`, attaching counters computed from the body's result. */
  def spanWith[T](name: String, label: String = "")(body: => T)(counts: T => Map[String, Long]): T =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = stack.headOption.getOrElse(-1)
      stack = id :: stack
      val t0 = System.nanoTime()
      try {
        val out = body
        val t1  = System.nanoTime()
        spans += Span(id, parent, name, label, t0, t1, counts(out))
        out
      } finally stack = stack.tail
    }

  def all: Seq[Span] = spans.toSeq

  def named(name: String): Seq[Span] = spans.iterator.filter(_.name == name).toSeq

  def toJsonLines: Iterator[String] = spans.iterator.map { s =>
    Json.obj(Seq(
      "id" -> Json.num(s.id), "parent" -> Json.num(s.parent), "name" -> Json.str(s.name),
      "label" -> Json.str(s.label),
      "start_ns" -> Json.num(s.startNs), "end_ns" -> Json.num(s.endNs),
      "counts" -> Json.obj(s.counts.toSeq.sortBy(_._1).map { case (k, v) => k -> Json.num(v) })))
  }
}

/** `core` layer probe: a decorator over any [[MomentBounder]] that counts
  * `lbound`/`rbound` calls and the nanoseconds spent in them. It is passed
  * to the engines exactly where the plain bounder would be, so the query
  * path is unchanged apart from the two clock reads per call.
  */
final class CountingBounder(inner: MomentBounder) extends MomentBounder {
  @transient private var calls = 0L
  @transient private var nanos = 0L

  override def name: String = inner.name

  override def lbound(s: MomentState, a: Double, b: Double, n: Long, delta: Double): Double = {
    val t0 = System.nanoTime()
    val out = inner.lbound(s, a, b, n, delta)
    nanos += System.nanoTime() - t0
    calls += 1
    out
  }

  override def rbound(s: MomentState, a: Double, b: Double, n: Long, delta: Double): Double = {
    val t0 = System.nanoTime()
    val out = inner.rbound(s, a, b, n, delta)
    nanos += System.nanoTime() - t0
    calls += 1
    out
  }

  /** (calls, nanos) since the last snapshot. */
  def take(): (Long, Long) = {
    val out = (calls, nanos)
    calls = 0L
    nanos = 0L
    out
  }
}

/** `spark` layer probe: job and task counters from Spark's listener bus,
  * for the jobs started inside [[JobCounter.counted]] only (the exact
  * baseline runs in the same loop and is not counted).
  */
final class JobCounter extends SparkListener {
  val jobs   = new AtomicLong
  val tasks  = new AtomicLong
  val taskMs = new AtomicLong
  private val countedJobs   = ConcurrentHashMap.newKeySet[Int]()
  private val countedStages = ConcurrentHashMap.newKeySet[Int]()

  override def onJobStart(e: SparkListenerJobStart): Unit =
    if (e.properties != null && e.properties.getProperty(JobCounter.Property) != null) {
      countedJobs.add(e.jobId)
      e.stageIds.foreach(countedStages.add(_))
    }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    if (countedJobs.contains(e.jobId)) jobs.incrementAndGet()

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    if (countedStages.contains(e.stageId)) {
      tasks.incrementAndGet()
      Option(e.taskMetrics).foreach(m => taskMs.addAndGet(m.executorRunTime))
    }

  /** Counters once the (asynchronous) listener bus has gone quiet. */
  def settled(): (Long, Long, Long) = {
    var last = (-1L, -1L, -1L)
    var now  = (jobs.get, tasks.get, taskMs.get)
    var waits = 0
    while (now != last && waits < 50) {
      Thread.sleep(100)
      last = now
      now = (jobs.get, tasks.get, taskMs.get)
      waits += 1
    }
    now
  }
}

object JobCounter {
  private val Property = "perfbench.counted"

  /** Run `body` with its Spark jobs marked for counting. */
  def counted[T](sc: SparkContext)(body: => T): T = {
    sc.setLocalProperty(Property, "1")
    try body
    finally sc.setLocalProperty(Property, null)
  }
}

/** Order statistics used for every reported timing. */
object Stats {

  /** Linear-interpolation quantile (the "type 7" definition). */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of no samples")
    val s   = xs.sorted
    val pos = q * (s.length - 1)
    val lo  = math.floor(pos).toInt
    val hi  = math.min(s.length - 1, lo + 1)
    s(lo) + (pos - lo) * (s(hi) - s(lo))
  }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  def geomean(xs: Seq[Double]): Double = {
    require(xs.nonEmpty && xs.forall(_ > 0), "geometric mean needs positive samples")
    math.exp(xs.map(math.log).sum / xs.size)
  }

  def ratio(num: Double, den: Double): Double = if (den == 0) 0.0 else num / den
}

/** Minimal JSON rendering for the result line, metadata and span file. */
object Json {
  def str(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'  => sb.append("\\\"")
      case '\\' => sb.append("\\\\")
      case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
      case c    => sb.append(c)
    }
    sb.append('"').toString
  }

  def num(x: Long): String = x.toString

  def num(x: Double): String = {
    require(!x.isNaN && !x.isInfinite, s"non-finite metric value $x")
    x.toString
  }

  def bool(b: Boolean): String = b.toString

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
