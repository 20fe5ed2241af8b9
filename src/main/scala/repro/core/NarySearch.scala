package repro.core

/** One IVF bucket (or partition) in the conventional horizontal layout:
  * vector i occupies `data(i*d until (i+1)*d)`. `means` and `suffixSqNorms`
  * mirror the PDX block metadata (per-dimension means for PDX-BOND's order;
  * `suffixSqNorms(i*(d+1)+j) = Σ_{t≥j} v_i(t)²` for BSA).
  */
final case class NaryBucket(ids: Array[Long], n: Int, d: Int, data: Array[Float],
                            means: Array[Float], suffixSqNorms: Array[Float]) {
  require(ids.length == n && data.length == n * d && means.length == d)
}

object NaryBucket {
  def pack(vecs: IndexedSeq[Array[Float]], ids: IndexedSeq[Long],
           withSuffixNorms: Boolean = false): NaryBucket = {
    require(vecs.nonEmpty, "cannot pack an empty bucket")
    require(vecs.length == ids.length, "vecs / ids length mismatch")
    val d = vecs.head.length
    val (means, suffix) = PdxLayout.groupStats(vecs, d, withSuffixNorms)
    NaryBucket(ids.toArray, vecs.length, d, PdxLayout.packNary(vecs), means, suffix)
  }
}

/** The original ADSampling/BSA search strategy on horizontal storage:
  * vector-at-a-time, with the pruning bound evaluated every Δd dimensions,
  * interleaved with the distance computation (the branchy pattern §6.3
  * profiles). τ tightens after every accepted vector. Dimensions are visited
  * in the pruner's order for the bucket's means, as in PDXearch, and the
  * first bound is asked after `max(Δd, minPruneDims)` dimensions (none when
  * that reaches the bucket's `d`).
  *
  * Used as the N-ary side of Table 7 and the SIMD-ADS/BSA stand-in, and —
  * with Δd = 1 and a profiler — as the pruning-power counter of Tables 2
  * and 6 (§2.3: the share of dimension values never read).
  */
final class NarySearcher(val k: Int, val deltaD: Int = 32,
                         val profiler: SearchProfiler = null) {

  def search(buckets: IterableOnce[NaryBucket], rawQuery: Array[Float],
             pruner: Pruner): KnnHeap = {
    val t0 = if (profiler ne null) System.nanoTime() else 0L
    val pq = pruner.prepareQuery(rawQuery)
    if (profiler ne null) profiler.queryPrepNanos += System.nanoTime() - t0
    searchPrepared(buckets, pq, new KnnHeap(k))
  }

  def searchPrepared(buckets: IterableOnce[NaryBucket], pq: PreparedQuery,
                     heap: KnnHeap): KnnHeap = {
    val q = pq.query
    PreparedQuery.requireFinite(q)
    val it = buckets.iterator
    while (it.hasNext) {
      val b = it.next()
      val d = b.d
      PreparedQuery.requireDims(q, d)
      val order = pq.order(b.means)
      val stride = d + 1
      val suffix = b.suffixSqNorms
      val firstStop = math.min(d, math.max(deltaD, pq.minPruneDims))
      val t0 = if (profiler ne null) System.nanoTime() else 0L
      var dimValues = 0L
      var evals = 0L
      var i = 0
      while (i < b.n) {
        val o = i * d
        val tau = heap.threshold // tightens per accepted vector
        var partial = 0f
        var dv = 0
        var prunedV = false
        if (tau == Float.PositiveInfinity) {
          partial = Kernels.l2Unrolled(b.data, o, q, d)
          dv = d
          dimValues += d
        } else {
          var nd = firstStop
          while (dv < d && !prunedV) {
            partial += Kernels.l2PartialNary(b.data, o, q, dv, nd, order)
            dimValues += nd - dv
            dv = nd
            if (dv < d) {
              val vs = if (suffix.length == 0) 0f else suffix(i * stride + dv)
              evals += 1
              if (pq.bound(partial, dv, vs) > tau) prunedV = true
              nd = math.min(d, dv + deltaD)
            }
          }
        }
        if (!prunedV) heap.push(b.ids(i), partial)
        i += 1
      }
      if (profiler ne null) {
        // Interleaved per-vector segments are too small to time individually;
        // record the whole bucket scan as distance time plus the op counts —
        // the bench splits it with calibrated unit costs (DESIGN.md #5).
        profiler.distanceNanos += System.nanoTime() - t0
        profiler.dimValuesScanned += dimValues
        profiler.boundEvals += evals
      }
    }
    heap
  }
}

/** Exact linear scans over the non-PDX layouts — the non-pruning
  * competitors (FAISS / Milvus / USearch / sklearn stand-ins, DSM,
  * N-ary+Gather of §7). The PDX linear scan is PDXearch with
  * [[Pruner.NeverPrune]], which runs every block through START.
  */
object LinearScan {

  /** Horizontal scan with the unrolled ("SIMD") kernel. */
  def naryKnn(data: Array[Float], n: Int, d: Int, q: Array[Float], k: Int): KnnHeap = {
    val heap = new KnnHeap(k)
    var i = 0
    while (i < n) {
      heap.push(i.toLong, Kernels.l2Unrolled(data, i * d, q, d))
      i += 1
    }
    heap
  }

  /** Horizontal scan with the plain scalar kernel (the "vanilla" baseline). */
  def naryScalarKnn(data: Array[Float], n: Int, d: Int, q: Array[Float], k: Int): KnnHeap = {
    val heap = new KnnHeap(k)
    var i = 0
    while (i < n) {
      heap.push(i.toLong, Kernels.l2Scalar(data, i * d, q, d))
      i += 1
    }
    heap
  }

  /** Fully decomposed (DSM) linear scan: whole-collection columns. */
  def dsmKnn(columns: Array[Array[Float]], n: Int, q: Array[Float], k: Int): KnnHeap = {
    val acc = new Array[Float](n)
    Kernels.l2Dsm(columns, n, q, acc)
    val heap = new KnnHeap(k)
    var i = 0
    while (i < n) { heap.push(i.toLong, acc(i)); i += 1 }
    heap
  }

  /** N-ary + on-the-fly gather scan (§7): PDX-style computation with
    * strided loads from horizontal storage, one PDX block's worth
    * ([[PdxLayout.DefaultBlockSize]] vectors) at-a-time.
    */
  def gatherKnn(data: Array[Float], n: Int, d: Int, q: Array[Float], k: Int): KnnHeap = {
    val heap = new KnnHeap(k)
    val out = new Array[Float](PdxLayout.DefaultBlockSize)
    var v0 = 0
    while (v0 < n) {
      val count = math.min(PdxLayout.DefaultBlockSize, n - v0)
      Kernels.l2NaryGather(data, v0, count, d, q, out)
      var i = 0
      while (i < count) { heap.push((v0 + i).toLong, out(i)); i += 1 }
      v0 += count
    }
    heap
  }
}
