package repro.ivf

import java.util.Random
import repro.core.{Kernels, PdxLayout}

/** Seeded Lloyd k-means — the "non-optimized Lloyd algorithm" the paper's
  * IVF index uses to form buckets (§2.1). Deterministic in (data, k, seed).
  */
object KMeans {

  final case class Model(centroids: Array[Array[Float]]) {
    val k: Int = centroids.length
    private val d: Int = if (k > 0) centroids(0).length else 0
    private val packed: Array[Float] = PdxLayout.packNary(centroids.toIndexedSeq)

    /** Nearest centroid of v (ties → lowest index, deterministic). */
    def assign(v: Array[Float]): Int = {
      var best = 0
      var bestDist = Float.PositiveInfinity
      var c = 0
      while (c < k) {
        val dist = Kernels.l2Unrolled(packed, c * d, v, d)
        if (dist < bestDist) { bestDist = dist; best = c }
        c += 1
      }
      best
    }
  }

  /** Fit k centroids with `iters` Lloyd iterations. Initial centroids are a
    * seeded sample without replacement; clusters that empty out are reseeded
    * to a random point so `k` buckets always survive.
    */
  def fit(vecs: IndexedSeq[Array[Float]], k: Int, iters: Int = 10,
          seed: Long = 23): Model = {
    require(vecs.nonEmpty, "k-means on empty collection")
    require(k > 0 && k <= vecs.length, s"k=$k out of range for n=${vecs.length}")
    val n = vecs.length
    val d = vecs.head.length
    val rnd = new Random(seed)

    // Seeded distinct-index sample for the initial centroids.
    val chosen = new java.util.LinkedHashSet[Integer]()
    while (chosen.size < k) chosen.add(rnd.nextInt(n))
    var centroids: Array[Array[Float]] = {
      val it = chosen.iterator()
      Array.fill(k)(vecs(it.next()).clone())
    }

    val sums = Array.ofDim[Double](k, d)
    val counts = new Array[Int](k)
    var iter = 0
    while (iter < iters) {
      val model = Model(centroids)
      var c = 0
      while (c < k) { java.util.Arrays.fill(sums(c), 0.0); c += 1 }
      java.util.Arrays.fill(counts, 0)
      var i = 0
      while (i < n) {
        val v = vecs(i)
        val a = model.assign(v)
        counts(a) += 1
        val s = sums(a)
        var j = 0
        while (j < d) { s(j) += v(j); j += 1 }
        i += 1
      }
      centroids = Array.tabulate(k) { c2 =>
        if (counts(c2) == 0) vecs(rnd.nextInt(n)).clone()
        else {
          val s = sums(c2)
          val cnt = counts(c2)
          Array.tabulate(d)(j => (s(j) / cnt).toFloat)
        }
      }
      iter += 1
    }
    Model(centroids)
  }
}
