package repro.bench

import repro.core.{Kernels, PdxLayout}
import repro.data.VectorData

/** Raw distance-kernel microbenchmarks — Tables 4 and 5 (§6.2).
  *
  * One query against an entire standard-normal float32 collection; the only
  * work measured is the distance computation in each layout (no KNN), as in
  * the paper. The horizontal baseline is the 4-way-unrolled kernel (the JVM
  * stand-in for explicit-SIMD kernels, DESIGN.md #1); the PDX side processes
  * pre-packed blocks of `blockSize` vectors at-a-time.
  */
object KernelBench {

  final case class Combo(d: Int, n: Int)

  /** Paper sweep: D from 8 to 1536, collections from small to cache-busting;
    * combos above `maxFloats` are skipped to bound bench time.
    */
  def combos(ds: Seq[Int], sizes: Seq[Int], maxFloats: Long = 24_000_000L): Seq[Combo] =
    for {
      d <- ds
      n <- sizes
      if n.toLong * d <= maxFloats
    } yield Combo(d, n)

  final case class Measurement(metric: String, d: Int, n: Int,
                               naryNanos: Double, pdxNanos: Double,
                               scalarNanos: Double, gatherNanos: Double) {
    def speedup: Double = naryNanos / pdxNanos
    def speedupVsScalar: Double = scalarNanos / pdxNanos
    def gatherSlowdown: Double = gatherNanos / pdxNanos
  }

  /** Measure one (metric, combo) across layouts. `quick` lowers rep counts
    * for functional tests.
    */
  def measure(metric: Kernels.Metric, combo: Combo, blockSize: Int = 64,
              quick: Boolean = false, withExtras: Boolean = true): Measurement = {
    val vecs = VectorData.gaussian(combo.n, combo.d, seed = combo.d * 1000L + combo.n)
    val query = VectorData.gaussian(1, combo.d, seed = 991L + combo.d).head
    val nary = PdxLayout.packNary(vecs)
    val blocks = PdxLayout.pack(vecs, vecs.indices.map(_.toLong), blockSize)
    val acc = new Array[Float](blocks.map(_.n).max)
    val gatherOut = new Array[Float](PdxLayout.DefaultBlockSize)
    val minBatch = if (quick) 200_000L else 20_000_000L
    val reps = if (quick) 3 else 5

    val naryNanos = BenchUtil.timePerOp(minBatch, reps) {
      var i = 0
      var sink = 0f
      while (i < combo.n) {
        sink += Kernels.nary(metric)(nary, i * combo.d, query, combo.d)
        i += 1
      }
      BenchUtil.consume(sink)
    }

    val pdxNanos = BenchUtil.timePerOp(minBatch, reps) {
      var sink = 0f
      blocks.foreach { b =>
        java.util.Arrays.fill(acc, 0, b.n, 0f)
        Kernels.pdx(metric)(b.data, b.n, query, 0, b.d, acc)
        sink += acc(0)
      }
      BenchUtil.consume(sink)
    }

    val scalarNanos =
      if (!withExtras) Double.NaN
      else BenchUtil.timePerOp(minBatch, reps) {
        var i = 0
        var sink = 0f
        while (i < combo.n) {
          sink += Kernels.naryScalar(metric)(nary, i * combo.d, query, combo.d)
          i += 1
        }
        BenchUtil.consume(sink)
      }

    // Gather only defined for L2 (the §7 study is on the L2 kernel).
    val gatherNanos =
      if (!withExtras || metric != Kernels.L2) Double.NaN
      else BenchUtil.timePerOp(minBatch, reps) {
        var v0 = 0
        var sink = 0f
        while (v0 < combo.n) {
          val count = math.min(PdxLayout.DefaultBlockSize, combo.n - v0)
          Kernels.l2NaryGather(nary, v0, count, combo.d, query, gatherOut)
          sink += gatherOut(0)
          v0 += count
        }
        BenchUtil.consume(sink)
      }

    Measurement(metric.name, combo.d, combo.n, naryNanos, pdxNanos, scalarNanos, gatherNanos)
  }

  /** Table 4 dimensionality groups. */
  def group(d: Int): String =
    if (d == 8) "D=8" else if (d <= 32) "D=16,32" else "D>32"

  /** Geomean speedups per (metric, group) + overall, Table 4 shape. */
  def table4(ds: Seq[Int], sizes: Seq[Int], quick: Boolean = false)
      : (String, Map[(String, String), Double]) = {
    val cs = combos(ds, sizes)
    val ms = for {
      metric <- Kernels.metrics
      c <- cs
    } yield measure(metric, c, quick = quick)

    val groups = Seq("D=8", "D=16,32", "D>32", "All")
    val cells = (for {
      metric <- Kernels.metrics
      g <- groups
    } yield {
      val sel = ms.filter(m => m.metric == metric.name && (g == "All" || group(m.d) == g))
      (metric.name, g) -> BenchUtil.geomean(sel.map(_.speedup))
    }).toMap

    val header = Seq("Arch.") ++ Kernels.metrics.flatMap(m => groups.map(g => s"${m.name} $g"))
    val row = Seq("JVM/C2 (this host)") ++
      Kernels.metrics.flatMap(m => groups.map(g => BenchUtil.f1(cells((m.name, g)))))

    val detail = BenchUtil.markdownTable(
      Seq("metric", "D", "n", "nary ns", "pdx ns", "PDX speedup", "vs scalar", "gather slowdown"),
      ms.map(m => Seq(m.metric, m.d.toString, m.n.toString,
                      BenchUtil.f1(m.naryNanos), BenchUtil.f1(m.pdxNanos),
                      BenchUtil.f2(m.speedup), BenchUtil.f2(m.speedupVsScalar),
                      if (m.gatherNanos.isNaN) "-" else BenchUtil.f2(m.gatherSlowdown)))
    )
    val table = BenchUtil.markdownTable(header, Seq(row)) +
      "\nSpeedup of auto-'vectorized' PDX kernels vs the unrolled horizontal " +
      "baseline (geomean per dimensionality group).\n\nPer-combo detail:\n\n" + detail
    (table, cells)
  }

  /** Table 5: geomean L2 speedup per PDX block size. */
  def table5(ds: Seq[Int], sizes: Seq[Int],
             blockSizes: Seq[Int] = Seq(16, 32, 64, 128, 256, 512),
             quick: Boolean = false): (String, Map[Int, Double]) = {
    val cs = combos(ds, sizes)
    val cells = blockSizes.map { bs =>
      val speedups = cs.map { c =>
        val m = measure(Kernels.L2, c, blockSize = bs, quick = quick, withExtras = false)
        m.speedup
      }
      bs -> BenchUtil.geomean(speedups)
    }.toMap
    val table = BenchUtil.markdownTable(
      Seq("Architecture") ++ blockSizes.map(_.toString),
      Seq(Seq("JVM/C2 (this host)") ++ blockSizes.map(bs => BenchUtil.f1(cells(bs))))
    ) + "\nGeomean speedup of the L2 PDX kernel vs the horizontal baseline per block size.\n"
    (table, cells)
  }
}
