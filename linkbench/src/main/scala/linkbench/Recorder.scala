package linkbench

import scala.collection.mutable

import org.apache.spark.{ListenerBusDrain, SparkContext}
import org.apache.spark.scheduler._
import org.apache.spark.storage.RDDBlockId

/** Spark work counted over a stretch of time or a span. */
final class Counters {
  var jobs = 0L
  var tasks = 0L
  var shuffleReadBytes = 0L
  var shuffleWriteBytes = 0L
  var spillBytes = 0L
  var gcMs = 0L
  var cpuNs = 0L
  val taskMs = mutable.ArrayBuffer.empty[Long]

  def add(o: Counters): Unit = {
    jobs += o.jobs; tasks += o.tasks
    shuffleReadBytes += o.shuffleReadBytes; shuffleWriteBytes += o.shuffleWriteBytes
    spillBytes += o.spillBytes; gcMs += o.gcMs; cpuNs += o.cpuNs
    taskMs ++= o.taskMs
  }

  def taskMaxS: Double = if (taskMs.isEmpty) 0.0 else taskMs.max / 1e3
  def taskMedianS: Double = if (taskMs.isEmpty) 0.0 else Stats.median(taskMs.map(_ / 1e3).toSeq)
}

/** One traced call into a layer: name, start, end and the span that caused it. */
final case class Span(id: Int, name: String, parent: Option[Int], startNs: Long,
                      var endNs: Long = 0L) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Span recorder: a `SparkListener` plus a job group set around each traced
  * call, so every Spark job, stage and task is charged to the innermost span
  * open when it started. It also tracks the memory held by persisted RDD
  * blocks, and the counters of all work since the last [[reset]].
  *
  * Listener callbacks run on the listener-bus thread; the main thread reads only
  * after [[drain]], under this object's lock.
  */
final class Recorder(sc: SparkContext) extends SparkListener {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private val open = mutable.Stack.empty[Span]
  private val bySpan = mutable.Map.empty[Int, Counters]
  private val stageSpan = mutable.Map.empty[Int, Int]
  private var window = new Counters
  private val blockMem = mutable.Map.empty[(Int, Int), Long]
  private var heldBytes = 0L
  private var peakBytes = 0L

  sc.addSparkListener(this)

  private def spanOf(props: java.util.Properties): Option[Int] =
    Option(props).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
      .filter(_.startsWith("span-")).map(_.stripPrefix("span-").toInt)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    window.jobs += 1
    spanOf(e.properties).foreach { id =>
      bySpan.getOrElseUpdate(id, new Counters).jobs += 1
      e.stageIds.foreach(stageSpan(_) = id)
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    val targets = Seq(window) ++ stageSpan.get(e.stageId).map(bySpan.getOrElseUpdate(_, new Counters))
    for (c <- targets) {
      c.tasks += 1
      c.taskMs += e.taskInfo.duration
      if (m != null) {
        c.shuffleReadBytes += m.shuffleReadMetrics.totalBytesRead
        c.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
        c.spillBytes += m.diskBytesSpilled
        c.gcMs += m.jvmGCTime
        c.cpuNs += m.executorCpuTime
      }
    }
  }

  override def onBlockUpdated(e: SparkListenerBlockUpdated): Unit = synchronized {
    e.blockUpdatedInfo.blockId match {
      case RDDBlockId(rdd, split) =>
        val info = e.blockUpdatedInfo
        val mem = if (info.storageLevel.isValid) info.memSize else 0L
        heldBytes += mem - blockMem.getOrElse((rdd, split), 0L)
        if (mem == 0L) blockMem.remove((rdd, split)) else blockMem((rdd, split)) = mem
        peakBytes = math.max(peakBytes, heldBytes)
      case _ =>
    }
  }

  // unpersisting removes an RDD's blocks without a block update per block
  override def onUnpersistRDD(e: SparkListenerUnpersistRDD): Unit = synchronized {
    val gone = blockMem.keys.filter(_._1 == e.rddId).toSeq
    gone.foreach(k => heldBytes -= blockMem.remove(k).getOrElse(0L))
  }

  /** Wait until every event posted so far has reached this listener. */
  def drain(): Unit = ListenerBusDrain.drain(sc)

  /** Start a new counting window; the storage peak restarts at what is held now. */
  def reset(): Unit = {
    drain()
    synchronized { window = new Counters; peakBytes = heldBytes }
  }

  /** Counters since the last [[reset]] and the peak of persisted-block memory. */
  def windowCounters(): (Counters, Long) = {
    drain()
    synchronized {
      val copy = new Counters
      copy.add(window)
      (copy, peakBytes)
    }
  }

  def span[T](name: String)(body: => T): T = {
    val s = Span(spans.size, name, open.headOption.map(_.id), System.nanoTime())
    spans += s
    open.push(s)
    sc.setJobGroup(s"span-${s.id}", name, interruptOnCancel = false)
    try body
    finally {
      s.endNs = System.nanoTime()
      open.pop()
      open.headOption match {
        case Some(p) => sc.setJobGroup(s"span-${p.id}", p.name, interruptOnCancel = false)
        case None => sc.clearJobGroup()
      }
    }
  }

  private def children(id: Int): Seq[Span] = spans.filter(_.parent.contains(id)).toSeq

  /** Counters of a span and all its descendants. */
  def inclusive(s: Span): Counters = {
    drain()
    val c = new Counters
    def visit(x: Span): Unit = {
      synchronized { bySpan.get(x.id).foreach(c.add) }
      children(x.id).foreach(visit)
    }
    visit(s)
    c
  }

  /** A span's duration minus the part of it that its children cover. */
  def selfSeconds(s: Span): Double = {
    val merged = children(s.id).map(c => (c.startNs, c.endNs)).sortBy(_._1)
      .foldLeft(List.empty[(Long, Long)]) {
        case ((a, b) :: rest, (x, y)) if x <= b => (a, math.max(b, y)) :: rest
        case (acc, iv) => iv :: acc
      }
    s.seconds - merged.map { case (a, b) => b - a }.sum / 1e9
  }

  /** The most recent span with this name. */
  def last(name: String): Span = spans.reverseIterator.find(_.name == name)
    .getOrElse(throw new NoSuchElementException(s"no span $name"))

  /** Every span as JSON: name, start, end, parent, self time and counters. */
  def spansJson(): String = {
    val t0 = spans.headOption.map(_.startNs).getOrElse(0L)
    spans.map { s =>
      val c = inclusive(s)
      val parent = s.parent.map(_.toString).getOrElse("null")
      f"""{"id": ${s.id}, "name": "${s.name}", "parent": $parent, """ +
        f""""start_s": ${(s.startNs - t0) / 1e9}%.6f, "end_s": ${(s.endNs - t0) / 1e9}%.6f, """ +
        f""""self_s": ${selfSeconds(s)}%.6f, "jobs": ${c.jobs}, "tasks": ${c.tasks}, """ +
        f""""shuffle_read_bytes": ${c.shuffleReadBytes}, "shuffle_write_bytes": ${c.shuffleWriteBytes}, """ +
        f""""spill_bytes": ${c.spillBytes}, "gc_ms": ${c.gcMs}, "cpu_ns": ${c.cpuNs}, """ +
        f""""task_max_s": ${c.taskMaxS}%.4f, "task_median_s": ${c.taskMedianS}%.4f}"""
    }.mkString("[\n  ", ",\n  ", "\n]\n")
  }
}

object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }
}
