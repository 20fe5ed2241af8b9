package repro.core

/** One PDX block: `n` vectors of dimensionality `d` stored dimension-major
  * (`data(dim * n + i)` is dimension `dim` of the block's i-th vector),
  * analogous to a Parquet rowgroup with a vertical layout inside (Figure 1).
  *
  * Block metadata (§3 "Metadata per block"):
  *  - `means`:  per-dimension mean of the block's vectors — drives PDX-BOND's
  *    query-aware dimension ordering;
  *  - `suffixSqNorms`: optional per-vector suffix squared norms
  *    `suffixSqNorms(i * (d+1) + j) = Σ_{t≥j} data(t,i)²` — the BSA bound's
  *    per-vector metadata (empty array when the pruner does not need it).
  */
final case class PdxBlock(
    ids: Array[Long],
    n: Int,
    d: Int,
    data: Array[Float],
    means: Array[Float],
    suffixSqNorms: Array[Float]
) {
  require(ids.length == n, s"ids ${ids.length} != n $n")
  require(data.length == n * d, s"data ${data.length} != n*d ${n * d}")
  require(means.length == d, s"means ${means.length} != d $d")
  require(
    suffixSqNorms.isEmpty || suffixSqNorms.length == n * (d + 1),
    s"suffix ${suffixSqNorms.length} != n*(d+1) ${n * (d + 1)}"
  )

  def hasSuffixNorms: Boolean = suffixSqNorms.nonEmpty

  /** Suffix squared norm of vector i from dimension j (inclusive). */
  @inline def suffix(i: Int, j: Int): Float = suffixSqNorms(i * (d + 1) + j)

  /** Reconstruct the i-th vector horizontally (test/debug helper). */
  def vectorAt(i: Int): Array[Float] = {
    val out = new Array[Float](d)
    var dim = 0
    while (dim < d) { out(dim) = data(dim * n + i); dim += 1 }
    out
  }
}

object PdxLayout {

  /** Default processing-block size — 64 vectors at-a-time performed best
    * across all ISAs in the paper (Table 5).
    */
  val DefaultBlockSize = 64

  /** Pack `vecs` into PDX blocks of at most `blockSize` vectors, preserving
    * order. `withSuffixNorms` materializes the BSA metadata (double-pass,
    * double-accumulated for accuracy, stored float).
    */
  def pack(vecs: IndexedSeq[Array[Float]], ids: IndexedSeq[Long],
           blockSize: Int = DefaultBlockSize,
           withSuffixNorms: Boolean = false): Vector[PdxBlock] = {
    require(vecs.length == ids.length, "vecs / ids length mismatch")
    if (vecs.isEmpty) return Vector.empty
    val d = vecs.head.length
    vecs.indices.iterator
      .grouped(blockSize)
      .map { idxs =>
        packOne(idxs.map(vecs), idxs.map(ids), d, withSuffixNorms)
      }
      .toVector
  }

  /** Pack one group of vectors into a single block (bucket = block for IVF). */
  def packOne(group: Seq[Array[Float]], groupIds: Seq[Long], d: Int,
              withSuffixNorms: Boolean): PdxBlock = {
    val (means, suffix) = groupStats(group, d, withSuffixNorms)
    val n = group.length
    val data = new Array[Float](n * d)
    var i = 0
    group.foreach { v =>
      var dim = 0
      while (dim < d) { data(dim * n + i) = v(dim); dim += 1 }
      i += 1
    }
    PdxBlock(groupIds.toArray, n, d, data, means, suffix)
  }

  /** The block metadata of a group of vectors, shared by both layouts:
    * per-dimension means (double-accumulated, stored float) and, when
    * requested, per-vector suffix squared norms laid out as
    * `s(i * (d+1) + j)` (else empty).
    *
    * This is where every packed collection is validated: ragged and
    * non-finite vectors are rejected, since a single NaN distance would
    * otherwise sit at the root of every KNN heap and evict true neighbours.
    */
  private[core] def groupStats(group: Seq[Array[Float]], d: Int,
                               withSuffixNorms: Boolean): (Array[Float], Array[Float]) = {
    require(group.nonEmpty, "cannot pack an empty group of vectors")
    val n = group.length
    val meansD = new Array[Double](d)
    val suffix = if (withSuffixNorms) new Array[Float](n * (d + 1)) else Array.emptyFloatArray
    var i = 0
    group.foreach { v =>
      require(v != null, s"vector $i of the group is null")
      require(v.length == d, s"ragged vector: vector $i has ${v.length} dimensions, expected $d")
      var dim = 0
      while (dim < d) { meansD(dim) += v(dim); dim += 1 }
      if (withSuffixNorms) suffixSqNormsInto(v, suffix, i * (d + 1))
      i += 1
    }
    // A sum of finite floats cannot overflow a double, so a non-finite sum
    // flags a NaN or an infinity in that dimension.
    val means = new Array[Float](d)
    var dim = 0
    while (dim < d) {
      if (!java.lang.Double.isFinite(meansD(dim))) rejectNonFinite(group, dim)
      means(dim) = (meansD(dim) / n).toFloat
      dim += 1
    }
    (means, suffix)
  }

  private def rejectNonFinite(group: Seq[Array[Float]], dim: Int): Nothing = {
    val i = group.indexWhere(v => !java.lang.Float.isFinite(v(dim)))
    throw new IllegalArgumentException(
      s"non-finite value ${group(i)(dim)} in vector $i, dimension $dim")
  }

  /** Suffix squared norms of one vector: `out(off + j) = Σ_{t≥j} v(t)²` for
    * j in [0, d], accumulated in double from the last dimension down and
    * stored float — the BSA bound's per-vector (and per-query) input.
    */
  private def suffixSqNormsInto(v: Array[Float], out: Array[Float], off: Int): Unit = {
    val d = v.length
    var acc = 0.0
    out(off + d) = 0f
    var j = d - 1
    while (j >= 0) { acc += v(j).toDouble * v(j); out(off + j) = acc.toFloat; j -= 1 }
  }

  /** Unpack a block back to (id, vector) pairs — inverse of pack. */
  def unpack(b: PdxBlock): IndexedSeq[(Long, Array[Float])] =
    (0 until b.n).map(i => (b.ids(i), b.vectorAt(i)))

  /** Query suffix squared norms for the BSA bound: out(j) = Σ_{t≥j} q(t)²,
    * length d+1.
    */
  def querySuffixSqNorms(q: Array[Float]): Array[Float] = {
    val out = new Array[Float](q.length + 1)
    suffixSqNormsInto(q, out, 0)
    out
  }

  /** Flatten vectors into one horizontal (N-ary) array: vector i occupies
    * [i*d, (i+1)*d). The conventional layout the paper compares against.
    */
  def packNary(vecs: IndexedSeq[Array[Float]]): Array[Float] = {
    if (vecs.isEmpty) return Array.emptyFloatArray
    val d = vecs.head.length
    val out = new Array[Float](vecs.length * d)
    var i = 0
    while (i < vecs.length) {
      System.arraycopy(vecs(i), 0, out, i * d, d)
      i += 1
    }
    out
  }

  /** Fully decomposed (DSM) layout: one full-collection column per dim. */
  def packDsm(vecs: IndexedSeq[Array[Float]]): Array[Array[Float]] = {
    if (vecs.isEmpty) return Array.empty
    val d = vecs.head.length
    val n = vecs.length
    val cols = Array.ofDim[Float](d, n)
    var i = 0
    while (i < n) {
      val v = vecs(i)
      var dim = 0
      while (dim < d) { cols(dim)(i) = v(dim); dim += 1 }
      i += 1
    }
    cols
  }

  /** Global per-dimension means of a collection (PDX-BOND exact-search
    * ordering uses collection-level means when blocks are large partitions).
    */
  def globalMeans(vecs: IndexedSeq[Array[Float]]): Array[Float] = {
    require(vecs.nonEmpty)
    groupStats(vecs, vecs.head.length, withSuffixNorms = false)._1
  }
}
