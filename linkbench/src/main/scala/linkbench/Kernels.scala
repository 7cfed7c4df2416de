package linkbench

import repro.core.{BloomFilter, QGrams}
import repro.data.PersonGen
import repro.pprl.Pipeline

/** Micro-benchmarks of the `core` kernels on 1024-bit CLKs built with the
  * default pipeline settings from a fixed set of generated records.
  */
object Kernels {
  private val Records = 2000
  private val Batches = 7

  /** Median over timed batches of the time per call, after warm-up batches. */
  private def perCall(calls: Int)(batch: => Long): Double = {
    var sink = 0L
    for (_ <- 1 to 3) sink += batch
    val times = (1 to Batches).map { _ =>
      val t0 = System.nanoTime()
      sink += batch
      (System.nanoTime() - t0).toDouble / calls
    }
    if (sink == 42L) println("")  // keeps the batches from being optimised away
    Stats.median(times)
  }

  def run(): Map[String, Double] = {
    val cfg = Pipeline.Config()
    val fields = (0 until Records).map { e =>
      val p = PersonGen.record(e.toLong, 2, 42L, 0.2, 2)
      Seq(p.fname, p.lname, p.dob, p.city)
    }
    def encode(f: Seq[String]): Array[Byte] =
      BloomFilter.encode(QGrams.recordGrams(f, cfg.q, pad = true), cfg.l, cfg.k, cfg.secret)
    val filters = fields.map(encode).toArray
    val reps = 200
    val pairCalls = Records * reps
    def overPairs(f: (Array[Byte], Array[Byte]) => Double): Long = {
      var acc = 0.0
      var r = 0
      while (r < reps) {
        var i = 0
        while (i < Records) { acc += f(filters(i), filters((i * 7 + r + 1) % Records)); i += 1 }
        r += 1
      }
      acc.toLong
    }
    Map(
      "core.clk_encode_us" -> perCall(Records)(fields.map(encode(_).length.toLong).sum) / 1e3,
      "core.dice_ns" -> perCall(pairCalls)(overPairs(BloomFilter.dice)),
      "core.and_count_ns" -> perCall(pairCalls)(overPairs((a, b) => BloomFilter.andCount(a, b).toDouble)))
  }
}
