package linkbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession
import repro.jobs.JobSession

/** The linkage benchmark: one workload per run, in one local-mode JVM.
  *
  * {{{
  * Main --workload <two-party|ppjoin> --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
  * }}}
  *
  * A run sets up (session, inputs generated from the seed and persisted),
  * discards warm-up operations until their time levels off, then attempts
  * whole rounds of operations for `--seconds`. Every counted operation is
  * checked against a computation made apart from the program. The last
  * line of stdout is the JSON result.
  */
object Main {
  /** Partitions of every generated input, whatever the core count. */
  val InputPartitions = 8
  val SetupRepeats = 3
  val MinWarmups = 4
  val MaxWarmups = 6
  /** Warm-up ends once an operation is no more than this share faster than the one before. */
  val LevelOff = 0.10

  val EndToEnd: Seq[(String, String)] = Seq(
    "link_s" -> "s", "setup_s" -> "s", "shuffle_mb" -> "MB", "cache_peak_mb" -> "MB",
    "f1" -> "ratio")

  val PerLayer: Seq[(String, String)] = Seq(
    "core.encode_s" -> "s", "core.encode_records_per_s" -> "1/s",
    "core.dice_ns" -> "ns", "core.and_count_ns" -> "ns", "core.clk_encode_us" -> "us",
    "blocking.positions_s" -> "s", "blocking.lsh_s" -> "s", "blocking.bucket_rows" -> "count",
    "blocking.candidates" -> "count", "blocking.max_bucket_pairs" -> "count",
    "blocking.pc" -> "ratio", "blocking.pq" -> "ratio", "blocking.shuffle_mb" -> "MB",
    "blocking.task_max_s" -> "s", "blocking.task_median_s" -> "s",
    "matching.dice_s" -> "s", "matching.dice_pairs_per_s" -> "1/s",
    "matching.dice_shuffle_mb" -> "MB", "matching.above_threshold" -> "count",
    "matching.dice_yield" -> "ratio", "matching.classify_s" -> "s", "matching.matches" -> "count",
    "filtering.rank_s" -> "s", "filtering.distinct_tokens" -> "count",
    "filtering.prefix_s" -> "s", "filtering.prefix_rows" -> "count",
    "filtering.candidates" -> "count", "filtering.verify_s" -> "s",
    "filtering.verified" -> "count", "filtering.yield" -> "ratio",
    "filtering.shuffle_mb" -> "MB", "filtering.task_max_s" -> "s",
    "spark.jobs" -> "count", "spark.tasks" -> "count", "spark.cpu_s" -> "s",
    "spark.gc_s" -> "s", "spark.spill_mb" -> "MB",
    "trace.op_s" -> "s", "trace.self_s" -> "s", "trace.overhead_s" -> "s")

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        traceDir: String)

  final case class Done(slot: Slot, seconds: Double, verdict: Verdict, shuffleMb: Double,
                        cachePeakMb: Double, layers: Map[String, Double]) {
    def failed: Boolean = verdict.failure.nonEmpty
  }

  def parse(args: Array[String]): Args = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad argument: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"--$k is required"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }
    val a = Args(need("workload"), need("seed").toLong, need("seconds").toDouble, trace,
                 kv.getOrElse("trace-dir", "."))
    require(Workload.all.contains(a.workload),
      s"unknown workload ${a.workload}; known: ${Workload.all.keys.toSeq.sorted.mkString(", ")}")
    require(a.seconds > 0, "--seconds must be positive")
    a
  }

  private def log(msg: String): Unit = Console.err.println(s"[linkbench] $msg")

  def main(argv: Array[String]): Unit = {
    val args = try parse(argv) catch {
      case e: IllegalArgumentException => log(e.getMessage); sys.exit(2)
    }
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    val spark = JobSession.build(s"linkbench-${args.workload}")
    val code = try { run(spark, args, jvmStartMs); 0 } catch {
      case NonFatal(e) => e.printStackTrace(); 1
    } finally spark.stop()
    sys.exit(code)
  }

  def run(spark: SparkSession, args: Args, jvmStartMs: Long): Unit = {
    val wl = Workload.all(args.workload)
    spark.conf.set("spark.sql.leafNodeDefaultParallelism", InputPartitions.toLong)
    val sessionS = (System.currentTimeMillis() - jvmStartMs) / 1e3
    val sc = spark.sparkContext
    val rec = new Recorder(sc)
    log(s"${args.workload}: ${wl.describe}; seed ${args.seed}; master ${sc.master}; " +
        s"input partitions $InputPartitions; shuffle partitions " +
        spark.conf.get("spark.sql.shuffle.partitions"))

    // set-up: session once, then generate + persist the inputs several times
    val preps = (1 to SetupRepeats).map { i =>
      val t0 = System.nanoTime()
      val in = wl.prepare(spark, args.seed)
      val s = (System.nanoTime() - t0) / 1e9
      if (i < SetupRepeats) wl.release(in)
      (in, s)
    }
    val in = preps.last._1
    val setupS = sessionS + Stats.median(preps.map(_._2))
    log(f"setup: session $sessionS%.3f s, inputs ${preps.map(p => f"${p._2}%.3f").mkString(" ")} s")
    if (wl.round(args.trace).contains(Extra)) {
      val t0 = System.nanoTime()
      wl.prepareExtra(in)
      log(f"inputs of the extra operation: ${(System.nanoTime() - t0) / 1e9}%.3f s")
    }
    val kept = sc.getPersistentRDDs.keySet

    def runOp(slot: Slot): Done = {
      // clean start: nothing cached but the inputs, garbage collected
      for ((id, rdd) <- sc.getPersistentRDDs if !kept(id)) rdd.unpersist(blocking = true)
      System.gc()
      rec.reset()
      val t0 = System.nanoTime()
      val out = try Right(slot match {
        case Plain => wl.operate(in, None)
        case Traced => wl.operate(in, Some(rec))
        case Extra => wl.extra(in)
      }) catch { case NonFatal(e) => Left(e) }
      val secs = (System.nanoTime() - t0) / 1e9
      val (c, peak) = rec.windowCounters()
      val done = out match {
        case Left(e) => Done(slot, secs, Verdict(Double.NaN, Some(e.toString)), 0, 0, Map.empty)
        case Right(o) =>
          val verdict = try o.check() catch { case NonFatal(e) => Verdict(Double.NaN, Some(e.toString)) }
          val layers = if (slot != Traced) Map.empty[String, Double] else {
            val op = rec.last("op")
            val oc = rec.inclusive(op)
            o.layers(rec) ++ Map(
              "spark.jobs" -> oc.jobs.toDouble, "spark.tasks" -> oc.tasks.toDouble,
              "spark.cpu_s" -> oc.cpuNs / 1e9, "spark.gc_s" -> oc.gcMs / 1e3,
              "spark.spill_mb" -> oc.spillBytes / 1e6,
              "trace.op_s" -> op.seconds, "trace.self_s" -> rec.selfSeconds(op))
          }
          o.release()
          Done(slot, secs, verdict, c.shuffleWriteBytes / 1e6, peak / 1e6, layers)
      }
      log(f"$slot%-6s ${done.seconds}%8.3f s  shuffle ${done.shuffleMb}%.2f MB  " +
          f"cache peak ${done.cachePeakMb}%.2f MB  jobs ${c.jobs}  tasks ${c.tasks}  " +
          f"task cpu ${c.cpuNs / 1e9}%.3f s  gc ${c.gcMs / 1e3}%.3f s  task max ${c.taskMaxS}%.3f s  " +
          f"f1 ${done.verdict.f1}%.4f" +
          done.verdict.failure.map(f => s"  FAILED: $f").getOrElse(""))
      done
    }

    // warm-up: discarded until the operation time levels off
    val warm = scala.collection.mutable.ArrayBuffer.empty[Double]
    while (warm.size < MaxWarmups &&
           (warm.size < MinWarmups || warm.last < (1 - LevelOff) * warm(warm.size - 2))) {
      warm += runOp(Plain).seconds
    }
    log(s"warm-up: ${warm.size} operations discarded")

    val deadline = System.nanoTime() + (args.seconds * 1e9).toLong
    val done = scala.collection.mutable.ArrayBuffer.empty[Done]
    do { done ++= wl.round(args.trace).map(runOp) } while (System.nanoTime() < deadline)

    val plain = done.filter(d => d.slot == Plain && !d.failed)
    val correct = !done.exists(d => d.slot != Extra && d.failed)
    def med(f: Done => Double) = if (plain.isEmpty) Double.NaN else Stats.median(plain.map(f).toSeq)
    val metrics: Seq[(String, String, Double)] =
      if (!args.trace) {
        val v = Map("link_s" -> med(_.seconds), "setup_s" -> setupS, "shuffle_mb" -> med(_.shuffleMb),
                    "cache_peak_mb" -> med(_.cachePeakMb), "f1" -> med(_.verdict.f1))
        EndToEnd.map { case (n, u) => (n, u, v(n)) }
      } else {
        val traced = done.filter(d => d.slot == Traced && !d.failed)
        val names = traced.flatMap(_.layers.keys).distinct
        val layer = names.map(n => n -> Stats.median(traced.flatMap(_.layers.get(n)).toSeq)).toMap
        val overhead =
          if (traced.isEmpty) Double.NaN else Stats.median(traced.map(_.seconds).toSeq) - med(_.seconds)
        val v = layer ++ Kernels.run() + ("trace.overhead_s" -> overhead)
        val dir = Paths.get(args.traceDir)
        Files.createDirectories(dir)
        val file = dir.resolve(s"${args.workload}-seed${args.seed}.json")
        Files.write(file, rec.spansJson().getBytes(StandardCharsets.UTF_8))
        log(s"spans written to $file")
        // layers this workload does not run read 0
        PerLayer.map { case (n, u) => (n, u, v.getOrElse(n, 0.0)) }
      }

    val attempted = done.size
    val failed = done.count(_.failed)
    println(s"workload ${args.workload}  seed ${args.seed}  attempted $attempted  failed $failed  correct $correct")
    for ((n, u, x) <- metrics) println(f"$n%-28s $x%16.6f $u")
    def num(x: Double) = if (x.isNaN || x.isInfinite) "null" else x.toString
    val body = metrics.map { case (n, u, x) => s""""$n": {"value": ${num(x)}, "unit": "$u"}""" }
    println(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, """ +
            s""""metrics": {${body.mkString(", ")}}}""")
  }
}
