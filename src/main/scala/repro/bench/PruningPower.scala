package repro.bench

import repro.core.{NaryBucket, NarySearcher, Pruner, SearchProfiler}

/** Pruning power for Tables 2 and 6, K = 10: the share of dimension values
  * (§2.3) the vector-at-a-time search never reads when it tests the bound
  * after every dimension (Δd = 1), as the original ADSampling search does.
  *
  * It is a counter of the real search, not a model of it: the collection is
  * one N-ary bucket in storage order, and each query runs
  * `NarySearcher(K, deltaD = 1)` with a [[SearchProfiler]]; power is
  * `1 − dimValuesScanned / (n·D)`. The first K vectors fill the heap (all
  * their dims count as read); every later vector stops at its first prune,
  * in the pruner's query-aware dimension order when it defines one.
  */
object PruningPower {

  /** Per-query pruning power (fraction in [0,1]) over the collection;
    * `collectionMeans` drives the pruner's dimension order.
    */
  def perQuery(vecsInSpace: IndexedSeq[Array[Float]], collectionMeans: Array[Float],
               pruner: Pruner, rawQueries: IndexedSeq[Array[Float]]): IndexedSeq[Double] = {
    val bucket = NaryBucket.pack(vecsInSpace, vecsInSpace.indices.map(_.toLong),
                                 pruner.needsSuffixNorms).copy(means = collectionMeans)
    val values = bucket.n.toLong * bucket.d
    val profiler = new SearchProfiler
    val searcher = new NarySearcher(BenchConfig.K, deltaD = 1, profiler)
    rawQueries.map { raw =>
      profiler.reset()
      searcher.search(Iterator.single(bucket), raw, pruner)
      1.0 - profiler.dimValuesScanned.toDouble / values
    }
  }

  final case class Summary(best: Double, p50: Double, p25: Double, worst: Double)

  /** Best / median / lower-quartile / worst pruning power, as percentages,
    * matching the Table 2 / Table 6 row structure. "p25" is the paper's
    * lower-quartile-of-pruning-power (25% of queries prune less than it).
    */
  def summarize(perQueryPower: IndexedSeq[Double]): Summary = {
    val sorted = perQueryPower.sorted // ascending: worst first
    Summary(
      best = 100.0 * sorted.last,
      p50 = 100.0 * BenchUtil.percentile(sorted, 0.50),
      p25 = 100.0 * BenchUtil.percentile(sorted, 0.25),
      worst = 100.0 * sorted.head
    )
  }
}
