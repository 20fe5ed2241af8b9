package repro.core

/** Wall-clock + operation-count instrumentation for the Table 7 query-time
  * breakdown. Pass `null` where profiling is not wanted — all call sites
  * guard on that, so the uninstrumented path has zero timing overhead.
  *
  * PDXearch's loops are batched (one distance loop and one bounds loop per
  * step), so those are timed directly. The N-ary pruned search interleaves
  * tiny per-vector segments; the searcher only counts operations there, and
  * the bench attributes the measured scan time via calibrated unit costs
  * (DESIGN.md, substitution #5).
  */
final class SearchProfiler {
  var queryPrepNanos: Long = 0L
  var findBucketsNanos: Long = 0L
  var distanceNanos: Long = 0L
  var boundsNanos: Long = 0L

  /** Total dimension values fed to distance kernels. */
  var dimValuesScanned: Long = 0L

  /** Total pruning-bound evaluations. */
  var boundEvals: Long = 0L

  def reset(): Unit = {
    queryPrepNanos = 0; findBucketsNanos = 0; distanceNanos = 0; boundsNanos = 0
    dimValuesScanned = 0; boundEvals = 0
  }
}
