package repro.ivf

import repro.core._

/** Bucket membership computed once on RAW data, shared by every layout and
  * pruner space, reproducing §6.3's "all competitors share the same IVF
  * index (identical buckets)".
  */
final case class IvfPartition(nlist: Int, assign: Array[Int],
                              rawCentroids: Array[Array[Float]])

object Ivf {

  /** Run Lloyd k-means on raw vectors and assign each to its bucket. */
  def partition(vecs: IndexedSeq[Array[Float]], nlist: Int, iters: Int = 10,
                seed: Long = 23): IvfPartition = {
    val model = KMeans.fit(vecs, nlist, iters, seed)
    val assign = new Array[Int](vecs.length)
    var i = 0
    while (i < vecs.length) { assign(i) = model.assign(vecs(i)); i += 1 }
    IvfPartition(nlist, assign, model.centroids)
  }
}

/** An IVF index materialized in one search space (raw for PDX-BOND, rotated
  * for ADSampling, PCA for BSA): buckets as PDX blocks (bucket == block, as
  * in Figure 2), the same buckets in horizontal layout for the N-ary
  * searchers, and the centroids packed as a PDX block so bucket selection
  * also uses the PDX kernel (§6.4, Table 7 "Find Nearest Buckets").
  *
  * Empty buckets are dropped; `bucketOf(b)` maps a centroid index to its
  * position in `blocks` (or -1).
  */
final class IvfIndex(
    val nlist: Int,
    val d: Int,
    val centroids: Array[Array[Float]],
    val centroidBlock: PdxBlock,
    val centroidNary: Array[Float],
    val blocks: Array[PdxBlock],
    val naryBuckets: Array[NaryBucket],
    val bucketOf: Array[Int]
) {

  /** Centroid indices sorted by distance to the (search-space) query. */
  def nearestBuckets(query: Array[Float], nprobe: Int,
                     profiler: SearchProfiler = null, usePdx: Boolean = true): Array[Int] = {
    val t0 = if (profiler ne null) System.nanoTime() else 0L
    val k = centroids.length
    val dists = new Array[Float](k)
    if (usePdx) {
      Kernels.l2Pdx(centroidBlock.data, centroidBlock.n, query, 0, d, dists)
    } else {
      var c = 0
      while (c < k) { dists(c) = Kernels.l2Unrolled(centroidNary, c * d, query, d); c += 1 }
    }
    val order = Array.tabulate(k)(identity).sortBy(c => (dists(c), c))
    val result = order.iterator.filter(bucketOf(_) >= 0).take(nprobe).toArray
    if (profiler ne null) profiler.findBucketsNanos += System.nanoTime() - t0
    result
  }

  /** Full IVF query with PDXearch: prep query, pick nprobe buckets, search
    * blocks nearest-first; the searcher's profiler, if any, times each
    * step. Returns sorted (id, distance) pairs. With [[Pruner.NeverPrune]]
    * this is the exact IVF bucket scan (the FAISS/Milvus IVF_FLAT
    * stand-in).
    */
  def searchPdx(rawQuery: Array[Float], k: Int, nprobe: Int, pruner: Pruner,
                searcher: PdxSearcher): IndexedSeq[(Long, Float)] = {
    val profiler = searcher.profiler
    val t0 = if (profiler ne null) System.nanoTime() else 0L
    val pq = pruner.prepareQuery(rawQuery)
    if (profiler ne null) profiler.queryPrepNanos += System.nanoTime() - t0
    val probes = nearestBuckets(pq.query, nprobe, profiler, usePdx = true)
    val heap = new KnnHeap(k)
    searcher.searchPrepared(probes.iterator.map(c => blocks(bucketOf(c))), pq, heap)
    heap.sorted
  }

  /** Full IVF query with the horizontal (N-ary) pruned search. */
  def searchNary(rawQuery: Array[Float], k: Int, nprobe: Int, pruner: Pruner,
                 searcher: NarySearcher): IndexedSeq[(Long, Float)] = {
    val profiler = searcher.profiler
    val t0 = if (profiler ne null) System.nanoTime() else 0L
    val pq = pruner.prepareQuery(rawQuery)
    if (profiler ne null) profiler.queryPrepNanos += System.nanoTime() - t0
    val probes = nearestBuckets(pq.query, nprobe, profiler, usePdx = false)
    val heap = new KnnHeap(k)
    searcher.searchPrepared(probes.iterator.map(c => naryBuckets(bucketOf(c))), pq, heap)
    heap.sorted
  }
}

object IvfIndex {

  /** Materialize the shared bucket membership in one pruner's search space.
    * `vecsInSpace` must be `pruner.transformData(raw)` (or raw itself);
    * centroids are transformed with the same map (rotations are linear, so
    * transformed centroids are the centroids of transformed buckets).
    */
  def materialize(part: IvfPartition, vecsInSpace: IndexedSeq[Array[Float]],
                  ids: IndexedSeq[Long], spaceCentroids: Array[Array[Float]],
                  withSuffixNorms: Boolean): IvfIndex = {
    require(vecsInSpace.length == part.assign.length && ids.length == vecsInSpace.length)
    val d = vecsInSpace.head.length
    val byBucket = Array.fill(part.nlist)(Vector.newBuilder[Int])
    var i = 0
    while (i < part.assign.length) { byBucket(part.assign(i)) += i; i += 1 }
    val blocksB = Vector.newBuilder[PdxBlock]
    val naryB = Vector.newBuilder[NaryBucket]
    val bucketOf = Array.fill(part.nlist)(-1)
    var w = 0
    var c = 0
    while (c < part.nlist) {
      val members = byBucket(c).result()
      if (members.nonEmpty) {
        val vs = members.map(vecsInSpace)
        val vIds = members.map(ids)
        blocksB += PdxLayout.packOne(vs, vIds, d, withSuffixNorms)
        naryB += NaryBucket.pack(vs, vIds, withSuffixNorms)
        bucketOf(c) = w
        w += 1
      }
      c += 1
    }
    val centroidBlock = PdxLayout.packOne(
      spaceCentroids.toIndexedSeq, spaceCentroids.indices.map(_.toLong), d,
      withSuffixNorms = false)
    new IvfIndex(part.nlist, d, spaceCentroids, centroidBlock,
                 PdxLayout.packNary(spaceCentroids.toIndexedSeq),
                 blocksB.result().toArray, naryB.result().toArray, bucketOf)
  }

  /** Convenience: partition raw data and materialize in a pruner's space. */
  def build(raw: IndexedSeq[Array[Float]], ids: IndexedSeq[Long], nlist: Int,
            pruner: Pruner, iters: Int = 10, seed: Long = 23): IvfIndex = {
    val part = Ivf.partition(raw, nlist, iters, seed)
    materialize(part, pruner.transformData(raw), ids,
                part.rawCentroids.map(pruner.transformVector),
                pruner.needsSuffixNorms)
  }
}
