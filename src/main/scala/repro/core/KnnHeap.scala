package repro.core

/** Bounded binary max-heap over (id, distance) for K-nearest-neighbour
  * candidates — the paper's "KNN candidates list (usually a max-heap)".
  *
  * `threshold` is the pruning bound τ: the current k-th best distance once
  * the heap is full, +∞ before (nothing can be pruned until k candidates
  * exist).
  */
final class KnnHeap(val k: Int) {
  require(k > 0, "k must be positive")
  private val dists = new Array[Float](k)
  private val idArr = new Array[Long](k)
  private var count = 0

  def size: Int = count
  def isFull: Boolean = count == k

  /** Current pruning threshold (k-th best distance, or +∞ if not full). */
  def threshold: Float = if (count == k) dists(0) else Float.PositiveInfinity

  /** Offer a candidate; keeps the k smallest (distance, id) pairs. A tie
    * at the threshold replaces the root only when its id is smaller, so the
    * heap holds the same answer as `sorted` / Spark's `orderBy(dist, id)`
    * whatever the arrival order — and per-partition heaps merge to the
    * same top-k for any partitioning. Searchers prune strictly above τ, so
    * tied vectors reach the heap.
    */
  def push(id: Long, dist: Float): Unit = {
    if (count < k) {
      dists(count) = dist
      idArr(count) = id
      count += 1
      siftUp(count - 1)
    } else if (dist < dists(0) || (dist == dists(0) && id < idArr(0))) {
      dists(0) = dist
      idArr(0) = id
      siftDown(0)
    }
  }

  private def siftUp(i0: Int): Unit = {
    var i = i0
    while (i > 0) {
      val parent = (i - 1) >> 1
      if (above(i, parent)) { swap(i, parent); i = parent }
      else return
    }
  }

  private def siftDown(i0: Int): Unit = {
    var i = i0
    while (true) {
      val l = 2 * i + 1
      val r = l + 1
      var largest = i
      if (l < count && above(l, largest)) largest = l
      if (r < count && above(r, largest)) largest = r
      if (largest == i) return
      swap(i, largest)
      i = largest
    }
  }

  /** Max-heap order on (distance, id). */
  @inline private def above(i: Int, j: Int): Boolean =
    dists(i) > dists(j) || (dists(i) == dists(j) && idArr(i) > idArr(j))

  @inline private def swap(i: Int, j: Int): Unit = {
    val td = dists(i); dists(i) = dists(j); dists(j) = td
    val ti = idArr(i); idArr(i) = idArr(j); idArr(j) = ti
  }

  /** Result sorted ascending by (distance, id) — deterministic output. */
  def sorted: IndexedSeq[(Long, Float)] =
    (0 until count).map(i => (idArr(i), dists(i))).sortBy { case (id, d) => (d, id) }

  def idsSorted: IndexedSeq[Long] = sorted.map(_._1)
}
