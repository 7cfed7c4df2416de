package linkbench

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{Encodings, Hashing}
import repro.data.PersonGen
import repro.filtering.PPJoin

/** `ppjoin`: `PPJoin.rankTokens` → `candidates` → `verify` at Jaccard 0.7
  * over keyed-hash q-grams of fname, lname and city, on the T3 inputs. The
  * `filtering` layer does all the work; Hamming-LSH and Dice do none.
  */
object PPJoinWorkload extends Workload {
  val Records = 1200L
  val Corruption = 0.3
  val Threshold = 0.7
  val Secret = "s3cret"
  val Fields = Seq("fname", "lname", "city")

  def describe: String =
    s"two PersonGen.pair parties of $Records records, ${Records / 2} shared entities, " +
    s"${(Corruption * 100).round}% of party B corrupted (max 2 edits); " +
    s"hashed q-grams of ${Fields.mkString(",")}; Jaccard >= $Threshold"

  /** Persisted `(id, tokens)` parties plus what the checks need. */
  final class In(val a: DataFrame, val b: DataFrame) {
    private def collect(df: DataFrame): Array[(Long, Array[Int])] =
      df.collect().map(r => r.getLong(0) -> r.getSeq[Int](1).toArray.sorted)

    lazy val tokensA: Array[(Long, Array[Int])] = collect(a)
    lazy val tokensB: Array[(Long, Array[Int])] = collect(b)

    /** Every pair with Jaccard ≥ t, by brute force over all pairs. */
    lazy val bruteForce: Set[(Long, Long)] = {
      val out = Set.newBuilder[(Long, Long)]
      for ((ia, ta) <- tokensA; (ib, tb) <- tokensB) {
        val inter = intersectSize(ta, tb)
        val union = ta.length + tb.length - inter
        if (union > 0 && inter.toDouble / union >= Threshold) out += ia -> ib
      }
      out.result()
    }

    lazy val truePairs: Long = {
      val ents = tokensA.map(_._1 % 1000000000L).toSet
      tokensB.count(x => ents.contains(x._1 % 1000000000L)).toLong
    }
  }

  /** Size of the intersection of two sorted, duplicate-free arrays. */
  def intersectSize(x: Array[Int], y: Array[Int]): Int = {
    var i = 0; var j = 0; var n = 0
    while (i < x.length && j < y.length) {
      if (x(i) < y(j)) i += 1
      else if (x(i) > y(j)) j += 1
      else { n += 1; i += 1; j += 1 }
    }
    n
  }

  def prepare(spark: SparkSession, seed: Long): In = {
    val (a0, b0) = PersonGen.pair(spark, Records, Records, Records / 2, Corruption,
                                  maxEdits = 2, seed = seed)
    val hashTok = udf((ts: Seq[String]) =>
      ts.map(t => Hashing.tokenHashMod(t, Secret, 0x77, 1 << 24)).distinct)
    def tokens(df: DataFrame): DataFrame = {
      val t = Encodings.withTokens(df, Fields)
        .select(col("rec_id") as "id", hashTok(col("tokens")) as "tokens").persist()
      t.count()
      t
    }
    new In(tokens(a0), tokens(b0))
  }

  def release(in: In): Unit = { in.a.unpersist(); in.b.unpersist() }

  private final class Filtered(in: In, ranked: (DataFrame, DataFrame), cands: DataFrame,
                               nCandidates: Long, verified: DataFrame, nVerified: Long)
      extends Outcome {
    def check(): Verdict = {
      val got = verified.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
      val want = in.bruteForce
      val failure =
        if (got.size != nVerified) Some(s"${got.size} distinct verified pairs, counted $nVerified")
        else if (got != want)
          Some(s"verified pairs differ from brute force: ${(got -- want).size} extra, " +
               s"${(want -- got).size} missing")
        else None
      val tp = got.count { case (x, y) => x % 1000000000L == y % 1000000000L }
      Verdict(TwoParty.f1(tp, got.size, in.truePairs), failure)
    }

    override def layers(rec: Recorder): Map[String, Double] = {
      val names = Seq("filtering.rank", "filtering.prefix", "filtering.verify")
      val counters = names.map(n => rec.inclusive(rec.last(n)))
      val distinctTokens = (in.tokensA ++ in.tokensB).flatMap(_._2).distinct.length
      Map(
        "filtering.rank_s" -> rec.last("filtering.rank").seconds,
        "filtering.distinct_tokens" -> distinctTokens.toDouble,
        "filtering.prefix_s" -> rec.last("filtering.prefix").seconds,
        "filtering.prefix_rows" -> prefixRows().toDouble,
        "filtering.candidates" -> nCandidates.toDouble,
        "filtering.verify_s" -> rec.last("filtering.verify").seconds,
        "filtering.verified" -> nVerified.toDouble,
        "filtering.yield" -> nVerified.toDouble / nCandidates,
        "filtering.shuffle_mb" -> counters.map(_.shuffleWriteBytes).sum / 1e6,
        "filtering.task_max_s" -> counters.map(_.taskMaxS).max)
    }

    /** Rows out of the length-filtered prefix join before `distinct`,
      * counted from the rank arrays outside Spark.
      */
    private def prefixRows(): Long = {
      def prefixes(df: DataFrame): Array[(Int, Array[Int])] =
        df.select("toks").collect().map { r =>
          val toks = r.getSeq[Int](0).toArray
          val len = toks.length
          len -> toks.take(math.max(1, len - math.ceil(Threshold * len).toInt + 1))
        }
      val byTok = mutable.Map.empty[Int, mutable.ArrayBuffer[Int]]
      for ((len, pre) <- prefixes(ranked._1); tok <- pre)
        byTok.getOrElseUpdate(tok, mutable.ArrayBuffer.empty) += len
      var rows = 0L
      for ((lenB, pre) <- prefixes(ranked._2); tok <- pre; lenA <- byTok.getOrElse(tok, Nil))
        if (lenB >= math.ceil(Threshold * lenA) && lenB <= math.floor(lenA / Threshold)) rows += 1
      rows
    }

    def release(): Unit =
      Seq(ranked._1, ranked._2, cands, verified).foreach(_.unpersist())
  }

  def operate(in: In, trace: Option[Recorder]): Outcome = {
    import Workload.span
    def run(): Outcome = {
      val (ar, br) = span(trace, "filtering.rank") {
        val (x, y) = PPJoin.rankTokens(in.a, in.b)
        val (xp, yp) = (x.persist(), y.persist())
        xp.count(); yp.count()
        (xp, yp)
      }
      val (cands, nCands) = span(trace, "filtering.prefix") {
        val c = PPJoin.candidates(ar, br, Threshold).persist()
        (c, c.count())
      }
      val (verified, nVerified) = span(trace, "filtering.verify") {
        val v = PPJoin.verify(cands, ar, br, Threshold).select("id_a", "id_b").persist()
        (v, v.count())
      }
      new Filtered(in, (ar, br), cands, nCands, verified, nVerified)
    }
    trace.fold(run())(_.span("op")(run()))
  }
}
