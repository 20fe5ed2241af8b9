package repro.bench

import repro.bench.BenchConfig.K
import repro.core._
import repro.data.VectorData
import repro.data.VectorData.DatasetSpec
import repro.ivf.{Ivf, IvfIndex}
import repro.prune.Bond

/** Table 7 (§6.4): breakdown of IVF query runtime into Distance
  * Calculation, Find Nearest Buckets, Bounds Evaluation, and Query
  * Preprocessing, for N-ary ADS, PDX ADS, N-ary BSA, PDX BSA, and PDX BOND
  * on the OpenAI-like high-dimensional dataset, at the nprobe reaching the
  * target recall.
  *
  * PDXearch phases are timed directly (batched loops). The N-ary searchers
  * interleave per-vector bound checks too fine-grained to time, so their
  * scan time is split using a calibrated per-evaluation bound cost
  * (DESIGN.md, substitution #5). Residual time (heap ops, dispatch) is
  * folded into Distance Calculation, as the paper's four components are.
  */
object BreakdownBench {

  final case class AlgoBreakdown(name: String, totalMs: Double, distMs: Double,
                                 bucketsMs: Double, boundsMs: Double, prepMs: Double,
                                 recall: Double) {
    private def pct(x: Double): String = f"${100.0 * x / totalMs}%.1f%% (${x}%.2fms)"
    def row: Seq[String] = Seq(name, f"$totalMs%.2f", pct(distMs), pct(bucketsMs),
                               pct(boundsMs), pct(prepMs), f"$recall%.3f")
  }

  /** Wall-clock cost of one bound evaluation for a pruner (ns). */
  def calibrateBoundNanos(pruner: Pruner, sampleQuery: Array[Float], d: Int): Double = {
    val pq = pruner.prepareQuery(sampleQuery)
    val inner = 4096
    BenchUtil.timePerOp(minBatchNanos = 2_000_000L, reps = 5) {
      var i = 0
      var s = 0f
      while (i < inner) {
        s += pq.bound(1.0f + i, (i % (d - 1)) + 1, 0.5f)
        i += 1
      }
      BenchUtil.consume(s)
    } / inner
  }

  def run(spec: DatasetSpec, nlist: Int = 0, targetRecall: Double = 0.99,
          kmeansIters: Int = 8, quick: Boolean = false): (String, Seq[AlgoBreakdown]) = {
    val ds = DatasetCache.dataset(spec)
    val n = ds.vectors.length
    val ids = ds.vectors.indices.map(_.toLong)
    val lists = if (nlist > 0) nlist else math.max(4, math.sqrt(n.toDouble).round.toInt)
    val gt = DatasetCache.groundTruth(spec)
    val queries = if (quick) ds.queries.take(8) else ds.queries

    val (ads, adsVecs) = DatasetCache.adsSpace(spec)
    val (bsa, bsaVecs) = DatasetCache.bsaSpace(spec)
    val bond = new Bond(spec.d, Bond.DimensionZones)

    // Identical buckets for every competitor (§6.3): one raw-space k-means.
    val part = Ivf.partition(ds.vectors, lists, kmeansIters, seed = spec.seed * 7 + 5)
    val rawIdx = IvfIndex.materialize(part, ds.vectors, ids, part.rawCentroids, withSuffixNorms = false)
    val adsIdx = IvfIndex.materialize(part, adsVecs, ids, part.rawCentroids.map(ads.transformVector), withSuffixNorms = false)
    val bsaIdx = IvfIndex.materialize(part, bsaVecs, ids, part.rawCentroids.map(bsa.transformVector), withSuffixNorms = true)

    // nprobe reaching the target recall with an exact bucket scan, floored
    // at lists/4: the paper's breakdown is taken at high recall where a
    // sizable share of buckets is probed; at reproduction scale the recall
    // curve saturates after very few buckets, which would shrink the scan
    // to a triviality and let query prep (full-D, scale-independent)
    // dominate every row (see EXPERIMENTS.md, Table 7 notes).
    val floor = math.max(4, lists / 4)
    val exactScan = Pruner.NeverPrune(spec.d)
    val exactSearcher = new PdxSearcher(K)
    val nprobe = Iterator(2, 4, 8, 12, 16, 24, 32, 48, 64, lists)
      .map(np => math.min(np, lists))
      .find { np =>
        val r = queries.indices.map { qi =>
          VectorData.recall(rawIdx.searchPdx(queries(qi), K, np, exactScan, exactSearcher).map(_._1),
                            gt(qi))
        }
        r.sum / r.length >= targetRecall
      }
      .map(np => math.max(np, floor))
      .getOrElse(lists)

    // Single-JVM microbenchmarking is noisy (JIT recompilation, shared-VM
    // neighbours): warm up with a full query pass, then keep the best of
    // `passes` measured passes per algorithm.
    val passes = if (quick) 1 else 3

    /** `unitBoundNs` is NaN when the searcher times its bound loops itself. */
    def measure(name: String, prof: SearchProfiler, unitBoundNs: Double)
               (search: Array[Float] => IndexedSeq[(Long, Float)]): AlgoBreakdown = {
      queries.foreach(search) // warmup pass
      (0 until passes).map { _ =>
        prof.reset()
        val t0 = System.nanoTime()
        var recallSum = 0.0
        queries.indices.foreach { qi =>
          recallSum += VectorData.recall(search(queries(qi)).map(_._1), gt(qi))
        }
        toBreakdown(name, System.nanoTime() - t0, prof, recallSum / queries.length, unitBoundNs)
      }.minBy(_.totalMs)
    }

    def measurePdx(name: String, idx: IvfIndex, pruner: Pruner): AlgoBreakdown = {
      val prof = new SearchProfiler
      val searcher = new PdxSearcher(K, profiler = prof)
      measure(name, prof, unitBoundNs = Double.NaN)(
        q => idx.searchPdx(q, K, nprobe, pruner, searcher))
    }

    def measureNary(name: String, idx: IvfIndex, pruner: Pruner): AlgoBreakdown = {
      val prof = new SearchProfiler
      val searcher = new NarySearcher(K, deltaD = math.min(32, math.max(1, spec.d / 4)), profiler = prof)
      measure(name, prof, calibrateBoundNanos(pruner, queries.head, spec.d))(
        q => idx.searchNary(q, K, nprobe, pruner, searcher))
    }

    def toBreakdown(name: String, totalNs: Long, prof: SearchProfiler,
                    recall: Double, unitBoundNs: Double): AlgoBreakdown = {
      val timed = unitBoundNs.isNaN
      val boundsNs = if (timed) prof.boundsNanos.toDouble else prof.boundEvals * unitBoundNs
      val distNs0 =
        if (timed) prof.distanceNanos.toDouble
        else math.max(0.0, prof.distanceNanos - boundsNs)
      val accounted = distNs0 + prof.findBucketsNanos + boundsNs + prof.queryPrepNanos
      // Fold unaccounted time (heap, iteration) into Distance Calculation.
      val distNs = distNs0 + math.max(0.0, totalNs - accounted)
      val toMs = 1e-6 / queries.length
      AlgoBreakdown(name, totalNs * toMs, distNs * toMs, prof.findBucketsNanos * toMs,
                    boundsNs * toMs, prof.queryPrepNanos * toMs, recall)
    }

    val breakdowns = Seq(
      measureNary("N-ary ADS", adsIdx, ads),
      measurePdx("PDX ADS", adsIdx, ads),
      measureNary("N-ary BSA", bsaIdx, bsa),
      measurePdx("PDX BSA", bsaIdx, bsa),
      measurePdx("PDX BOND", rawIdx, bond),
    )

    val table = BenchUtil.markdownTable(
      Seq("Algorithm", "Query Time (ms)", "Distance Calculation", "Find Nearest Buckets",
          "Bounds Evaluation", "Query Preprocessing", "recall@10"),
      breakdowns.map(_.row)
    ) + s"\nIVF query runtime breakdown on ${spec.label}: nlist=$lists, nprobe=$nprobe " +
      s"(target recall $targetRecall), K=$K, ${queries.length} queries.\n"
    (table, breakdowns)
  }
}
