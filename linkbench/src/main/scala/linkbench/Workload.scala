package linkbench

import org.apache.spark.sql.SparkSession

/** How one checked operation came out: its quality and, if it failed, why. */
final case class Verdict(f1: Double, failure: Option[String])

/** An operation forced to its counted result. Checking and per-layer
  * diagnostics happen after the operation's timer has stopped.
  */
trait Outcome {
  /** Compare the result with computations made apart from the program. */
  def check(): Verdict

  /** Per-layer metrics of a traced operation, read from its spans. */
  def layers(rec: Recorder): Map[String, Double] = Map.empty

  /** Unpersist what the operation left cached. */
  def release(): Unit
}

/** Kinds of operation in a round. */
sealed trait Slot
/** The workload's operation, untraced; its times make `link_s`. */
case object Plain extends Slot
/** The same operation with a span around each layer call. */
case object Traced extends Slot
/** A further checked operation whose time is not part of `link_s`. */
case object Extra extends Slot

/** One benchmark workload: inputs made from a seed, and one operation. */
trait Workload {
  type In

  /** Generate the inputs from `seed`, persist them and force them. */
  def prepare(spark: SparkSession, seed: Long): In

  def release(in: In): Unit

  /** One complete linkage job on the persisted inputs; with a recorder, each
    * layer call runs in its own span.
    */
  def operate(in: In, trace: Option[Recorder]): Outcome

  /** The operations of one round. Every run attempts whole rounds, so the
    * share of failed operations is the same in every run.
    */
  def round(traced: Boolean): Seq[Slot] = if (traced) Seq(Plain, Traced) else Seq(Plain, Plain)

  /** Make and persist the inputs of the [[Extra]] operation (not set-up time). */
  def prepareExtra(in: In): Unit = ()

  /** The [[Extra]] operation of a round, for workloads whose round has one. */
  def extra(in: In): Outcome = throw new UnsupportedOperationException("no extra operation")

  /** Input size and settings, printed with the report. */
  def describe: String
}

object Workload {
  /** Run `body` as a span of `trace`, or plainly when untraced. */
  def span[T](trace: Option[Recorder], name: String)(body: => T): T =
    trace.fold(body)(_.span(name)(body))

  val all: Map[String, Workload] = Map("two-party" -> TwoParty, "ppjoin" -> PPJoinWorkload)
}
