package repro.core

/** A per-query state machine produced by a [[Pruner]].
  *
  * The contract with PDXearch / the N-ary searcher: after a vector has
  * accumulated `partial` distance over the first `dimsVisited` dimensions of
  * the search-space order, `bound(...)` returns a (possibly probabilistic)
  * lower-bound estimate of its full distance; the vector is pruned iff the
  * bound exceeds the current k-th best distance τ. Exact pruners return true
  * lower bounds (no recall loss); approximate pruners (ADSampling, BSA with
  * m < 1) may overshoot, trading recall for speed exactly as in the paper.
  */
trait PreparedQuery {

  /** The query mapped into search space (rotated for ADSampling/BSA). */
  def query: Array[Float]

  /** Query-aware dimension visit order given per-block dimension means;
    * `null` means sequential access (ADSampling, BSA). Stored suffix norms
    * follow the sequential order, so pruners that need them return `null`.
    */
  def order(means: Array[Float]): Array[Int]

  /** Lower-bound estimate after `dimsVisited` dims with partial distance
    * `partial`; `vecSuffixSq` is the vector's suffix squared norm from
    * dimension `dimsVisited` (0 when the pruner does not need it —
    * see [[Pruner.needsSuffixNorms]]).
    */
  def bound(partial: Float, dimsVisited: Int, vecSuffixSq: Float): Float

  /** Dims the algorithm wants scanned before its first pruning attempt —
    * the Δd of the ADSampling/BSA dual-block layout (§2.3). PDXearch sizes
    * its first WARMUP step to at least this, so no predicate passes are
    * wasted where the bound cannot fire; at or above a block's `d` it scans
    * the block linearly (START). 0 = prune from the first step.
    */
  def minPruneDims: Int = 0

  /** True when `bound(p, dv, s) == p` for all inputs (PDX-BOND's
    * partial-distance bound). The searcher then compares the accumulated
    * distance against τ directly in its predicate loops — the manual
    * monomorphization HotSpot needs where the paper's C++ gets inlining
    * from templates.
    */
  def isPartialBound: Boolean = false
}

object PreparedQuery {

  /** Searchers check their query once per search: a NaN or an infinity
    * turns distances into NaN or +∞, which neither the bounds nor the KNN
    * heap can rank.
    */
  def requireFinite(query: Array[Float]): Unit = {
    var j = 0
    while (j < query.length) {
      if (!java.lang.Float.isFinite(query(j)))
        throw new IllegalArgumentException(
          s"non-finite query value ${query(j)} in dimension $j")
      j += 1
    }
  }

  /** Searchers check every block: a shorter query overruns the kernels, a
    * longer one would silently be answered for its first `d` dimensions.
    */
  @inline def requireDims(query: Array[Float], d: Int): Unit =
    if (query.length != d)
      throw new IllegalArgumentException(
        s"query has ${query.length} dimensions but the data has $d")
}

/** A dimension-pruning strategy: data-space transform + per-query bound.
  * Implementations: [[repro.prune.AdSampling]], [[repro.prune.Bsa]],
  * [[repro.prune.Bond]], [[Pruner.NeverPrune]].
  */
trait Pruner extends Serializable {
  def name: String

  /** Dimensionality this pruner was built for. */
  def d: Int

  /** Whether blocks must materialize per-vector suffix squared norms. */
  def needsSuffixNorms: Boolean = false

  /** True if full-scan results are bit-identical to brute force (no recall
    * trade-off).
    */
  def isExact: Boolean

  /** Map the collection into search space (identity for raw-space pruners). */
  def transformData(vecs: IndexedSeq[Array[Float]]): IndexedSeq[Array[Float]] = vecs

  /** Map one raw-space vector into search space (used for centroids). */
  def transformVector(v: Array[Float]): Array[Float] = v

  def prepareQuery(q: Array[Float]): PreparedQuery
}

object Pruner {

  /** Sequential, never-pruning pruner: drives PDXearch as a plain PDX
    * linear scan (the PDX-LINEAR-SCAN competitor of §6.5). Its
    * `minPruneDims` is the full dimensionality, so PDXearch takes START
    * for every block.
    */
  final case class NeverPrune(d: Int) extends Pruner {
    val name = "linear"
    val isExact = true
    def prepareQuery(q: Array[Float]): PreparedQuery = new PreparedQuery {
      val query: Array[Float] = q
      def order(means: Array[Float]): Array[Int] = null
      override def minPruneDims: Int = d
      def bound(partial: Float, dimsVisited: Int, vecSuffixSq: Float): Float =
        Float.NegativeInfinity
    }
  }
}
