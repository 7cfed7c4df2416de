package linkbench

import java.util.BitSet

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.blocking.HammingLsh
import repro.core.Encodings
import repro.data.PersonGen
import repro.matching.{Classifier, Scoring}
import repro.pprl.Pipeline

/** `two-party`: `Pipeline.run` with the default `Config` on a `PersonGen.pair`.
  * Blocking and Dice scoring do most of the work, so this is where the
  * `blocking`/`matching` join path and the `core` kernels show.
  *
  * Each round also links fixed inputs (independent of the run's seed) as
  * generated and repartitioned to another count, and fails that operation
  * when the two differ in candidates or matches.
  */
object TwoParty extends Workload {
  val Records = 10000L
  val Shared = Records / 2
  val Corruption = 0.2
  val F1Floor = 0.9
  val InvarianceRecords = 2000L
  val InvarianceSeed = 42L
  val InvariancePartitions = 3
  val cfg: Pipeline.Config = Pipeline.Config()

  def describe: String =
    s"two PersonGen.pair parties of $Records records, $Shared shared entities, " +
    s"${(Corruption * 100).round}% of party B corrupted; Pipeline.Config() defaults"

  private def persistPair(spark: SparkSession, n: Long, seed: Long): (DataFrame, DataFrame) = {
    val (a, b) = PersonGen.pair(spark, n, n, n / 2, Corruption, seed = seed)
    val pa = a.persist(); val pb = b.persist()
    pa.count(); pb.count()
    (pa, pb)
  }

  /** Persisted parties plus the ground truth, collected lazily for checks. */
  final class In(val a: DataFrame, val b: DataFrame) {
    lazy val entOf: Map[Long, Long] =
      a.unionByName(b).select("rec_id", "ent_id").collect()
        .map(r => r.getLong(0) -> r.getLong(1)).toMap

    lazy val truePairs: Long = {
      val ents = (df: DataFrame) => df.select("ent_id").collect().map(_.getLong(0)).toSet
      (ents(a) intersect ents(b)).size.toLong
    }

    /** Each record's CLK as a `java.util.BitSet` (same byte layout). */
    lazy val filters: Map[Long, BitSet] = {
      def enc(df: DataFrame) =
        Encodings.withClk(df, cfg.fields, cfg.l, cfg.k, cfg.q, cfg.secret)
          .select("rec_id", "bf").collect()
          .map(r => r.getLong(0) -> BitSet.valueOf(r.getAs[Array[Byte]](1)))
      (enc(a) ++ enc(b)).toMap
    }

    /** Fixed-seed inputs of the partition-invariance operation: as generated,
      * and repartitioned to [[InvariancePartitions]].
      */
    lazy val invariance: ((DataFrame, DataFrame), (DataFrame, DataFrame)) = {
      val (fa, fb) = persistPair(a.sparkSession, InvarianceRecords, InvarianceSeed)
      val ra = fa.repartition(InvariancePartitions).persist()
      val rb = fb.repartition(InvariancePartitions).persist()
      ra.count(); rb.count()
      ((fa, fb), (ra, rb))
    }
  }

  def prepare(spark: SparkSession, seed: Long): In = {
    val (a, b) = persistPair(spark, Records, seed)
    new In(a, b)
  }

  def release(in: In): Unit = { in.a.unpersist(); in.b.unpersist() }

  private def pairs(df: DataFrame): Set[(Long, Long)] =
    df.select("id_a", "id_b").collect().map(r => (r.getLong(0), r.getLong(1))).toSet

  /** 2|a∧b| / (|a|+|b|), computed apart from the program's kernels. */
  def dice(a: BitSet, b: BitSet): Double = {
    val both = a.clone().asInstanceOf[BitSet]
    both.and(b)
    val denom = a.cardinality + b.cardinality
    if (denom == 0) 0.0 else 2.0 * both.cardinality / denom
  }

  def f1(tp: Long, predicted: Long, truth: Long): Double = {
    val p = if (predicted == 0) 0.0 else tp.toDouble / predicted
    val r = if (truth == 0) 0.0 else tp.toDouble / truth
    if (p + r == 0) 0.0 else 2 * p * r / (p + r)
  }

  /** The counted result of one linkage, and what the traced one kept. */
  private final class Linked(in: In, nCandidates: Long, nMatches: Long, matches: DataFrame,
                             traced: Option[TracedParts]) extends Outcome {
    def check(): Verdict = {
      val m = pairs(matches)
      val problems = Seq(
        Option.when(m.size != nMatches)(s"${m.size} distinct matches, counted $nMatches"),
        Option.when(nMatches > nCandidates)(s"$nMatches matches > $nCandidates candidates"),
        Option.when(m.map(_._1).size != m.size || m.map(_._2).size != m.size)(
          "a rec_id appears in two matches"),
        m.find { case (x, y) => dice(in.filters(x), in.filters(y)) < cfg.threshold }
          .map(p => s"match $p has Dice below ${cfg.threshold}")
      ).flatten
      val tp = m.count { case (x, y) => in.entOf(x) == in.entOf(y) }
      val q = f1(tp, m.size, in.truePairs)
      val low = Option.when(q < F1Floor)(f"F1 $q%.4f below floor $F1Floor")
      Verdict(q, (problems ++ low).headOption)
    }

    override def layers(rec: Recorder): Map[String, Double] = traced.fold(Map.empty[String, Double]) { t =>
      val encode = rec.last("core.encode")
      val lsh = rec.last("blocking.lsh")
      val diceSpan = rec.last("matching.dice")
      val lshC = rec.inclusive(lsh)
      val diceC = rec.inclusive(diceSpan)
      // bucket sizes per (table, key) on each side: pairs the bucket join emits
      val sizes = (df: DataFrame, side: String) =>
        HammingLsh.keys(df, "bf", t.positions).groupBy("t", "key").agg(count("*") as side)
      val buckets = sizes(t.ea, "na").join(sizes(t.eb, "nb"), Seq("t", "key"))
        .select(col("na") * col("nb") as "pairs")
        .agg(sum("pairs"), max("pairs")).collect()(0)
      val cands = pairs(t.cands)
      val tp = cands.count { case (x, y) => in.entOf(x) == in.entOf(y) }
      val above = t.scored.where(col("sim") >= cfg.threshold).count()
      val records = in.entOf.size.toDouble
      Map(
        "core.encode_s" -> encode.seconds,
        "core.encode_records_per_s" -> records / encode.seconds,
        "blocking.positions_s" -> rec.last("blocking.positions").seconds,
        "blocking.lsh_s" -> lsh.seconds,
        "blocking.bucket_rows" -> buckets.getLong(0).toDouble,
        "blocking.max_bucket_pairs" -> buckets.getLong(1).toDouble,
        "blocking.candidates" -> nCandidates.toDouble,
        "blocking.pc" -> tp.toDouble / in.truePairs,
        "blocking.pq" -> tp.toDouble / nCandidates,
        "blocking.shuffle_mb" -> lshC.shuffleWriteBytes / 1e6,
        "blocking.task_max_s" -> lshC.taskMaxS,
        "blocking.task_median_s" -> lshC.taskMedianS,
        "matching.dice_s" -> diceSpan.seconds,
        "matching.dice_pairs_per_s" -> nCandidates / diceSpan.seconds,
        "matching.dice_shuffle_mb" -> diceC.shuffleWriteBytes / 1e6,
        "matching.above_threshold" -> above.toDouble,
        "matching.dice_yield" -> above.toDouble / nCandidates,
        "matching.classify_s" -> rec.last("matching.classify").seconds,
        "matching.matches" -> nMatches.toDouble)
    }

    def release(): Unit = {
      matches.unpersist()
      traced.foreach(t => Seq(t.ea, t.eb, t.cands, t.scored).foreach(_.unpersist()))
    }
  }

  private final case class TracedParts(ea: DataFrame, eb: DataFrame,
                                       positions: Array[Array[Int]],
                                       cands: DataFrame, scored: DataFrame)

  def operate(in: In, trace: Option[Recorder]): Outcome = trace match {
    case None =>
      val r = Pipeline.run(in.a, in.b, cfg)
      new Linked(in, r.nCandidates, r.nMatches, r.matches, None)
    case Some(rec) => tracedRun(in, rec)
  }

  /** `Pipeline.run`'s steps, called one by one through the same public
    * functions, each forced as `Pipeline.run` forces it, each in a span.
    */
  private def tracedRun(in: In, rec: Recorder): Outcome = rec.span("op") {
    import Workload.span
    val t = Some(rec)
    val (ea, eb) = span(t, "core.encode") {
      def enc(df: DataFrame) = Encodings.withClk(df, cfg.fields, cfg.l, cfg.k, cfg.q, cfg.secret)
        .select(col("rec_id"), col("bf")).persist()
      val (x, y) = (enc(in.a), enc(in.b))
      x.count(); y.count()
      (x, y)
    }
    val positions = span(t, "blocking.positions") {
      val sample = ea.select("bf").limit(1000).collect().map(_.getAs[Array[Byte]](0)).toSeq
      HammingLsh.samplePositionsEntropyAware(sample, cfg.l, cfg.lshTables, cfg.lshBits, cfg.seed)
    }
    val (cands, nCands) = span(t, "blocking.lsh") {
      val c = HammingLsh.candidatesWithPositions(ea, eb, "bf", positions).persist()
      (c, c.count())
    }
    val scored = span(t, "matching.dice") {
      val s = Scoring.withDice(cands, ea, eb, "bf").persist()
      s.count()
      s
    }
    val (matches, nMatches) = span(t, "matching.classify") {
      val aboveT = scored.where(col("sim") >= cfg.threshold)
      val m = Classifier.greedyOneToOne(aboveT).select("id_a", "id_b").persist()
      (m, m.count())
    }
    new Linked(in, nCands, nMatches, matches, Some(TracedParts(ea, eb, positions, cands, scored)))
  }

  override def round(traced: Boolean): Seq[Slot] =
    if (traced) Seq(Plain, Traced, Extra) else Seq(Plain, Plain, Extra)

  override def prepareExtra(in: In): Unit = in.invariance

  /** Link the fixed inputs as generated and repartitioned; compare the two. */
  override def extra(in: In): Outcome = {
    val ((fa, fb), (ra, rb)) = in.invariance
    val ref = Pipeline.run(fa, fb, cfg)
    val r = Pipeline.run(ra, rb, cfg)
    new Outcome {
      def check(): Verdict = {
        val (want, got) = (pairs(ref.matches), pairs(r.matches))
        val failure =
          if (r.nCandidates != ref.nCandidates || got != want)
            Some(s"partition invariance: $InvariancePartitions partitions give " +
                 s"${r.nCandidates} candidates / ${got.size} matches, as generated " +
                 s"${ref.nCandidates} / ${want.size}")
          else None
        Verdict(Double.NaN, failure)
      }
      def release(): Unit = { ref.matches.unpersist(); r.matches.unpersist() }
    }
  }
}
