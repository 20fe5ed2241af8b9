package repro.data

import java.util.Random
import repro.core.Kernels

/** Synthetic stand-ins for the paper's 10 evaluation datasets (Table 1).
  *
  * Real embedding collections are not downloadable in this sealed
  * environment, so each dataset is replaced by a seeded clustered Gaussian
  * mixture with the same dimensionality and the same distribution *class*
  * the paper categorizes it by (§2.2): "normal" (per-dimension values
  * roughly normal, comparable scales) vs "skewed" (non-negative, half-normal
  * marginals, power-law decaying per-dimension scales — the SIFT/GIST-style
  * histogram shape). Cluster structure supplies the distance contrast that
  * makes IVF and dimension pruning behave as on real data; the per-dimension
  * scale profile is randomly permuted across dimensions so no access-order
  * criterion is trivially favoured. See DESIGN.md, substitution #2.
  */
object VectorData {

  final case class DatasetSpec(
      name: String,
      d: Int,
      n: Int,
      nQueries: Int,
      skewed: Boolean,
      clusters: Int = 64,
      seed: Long = 42
  ) {
    def label: String = s"$name/$d"
  }

  final case class Dataset(spec: DatasetSpec, vectors: IndexedSeq[Array[Float]],
                           queries: IndexedSeq[Array[Float]]) {
    def ids: IndexedSeq[Long] = vectors.indices.map(_.toLong)
  }

  /** The paper's 10 datasets at a given reproduction scale. */
  def catalog(n: Int = 10000, nQueries: Int = 50): Seq[DatasetSpec] = Seq(
    DatasetSpec("NYTimes", 16, n, nQueries, skewed = false, seed = 101),
    DatasetSpec("GloVe", 50, n, nQueries, skewed = false, seed = 102),
    DatasetSpec("DEEP", 96, n, nQueries, skewed = false, seed = 103),
    DatasetSpec("SIFT", 128, n, nQueries, skewed = true, seed = 104),
    DatasetSpec("GloVe", 200, n, nQueries, skewed = false, seed = 105),
    DatasetSpec("MSong", 420, n, nQueries, skewed = true, seed = 106),
    DatasetSpec("Contriever", 768, n, nQueries, skewed = false, seed = 107),
    DatasetSpec("arXiv", 768, n, nQueries, skewed = false, seed = 108),
    DatasetSpec("GIST", 960, n, nQueries, skewed = true, seed = 109),
    DatasetSpec("OpenAI", 1536, n, nQueries, skewed = true, seed = 110),
  )

  /** The 8-dataset subset used by the pruning-power tables (2 and 6). */
  def pruningCatalog(n: Int = 10000, nQueries: Int = 50): Seq[DatasetSpec] =
    catalog(n, nQueries).filter(s => s.label != "GloVe/200" && s.label != "arXiv/768")

  def generate(spec: DatasetSpec): Dataset = {
    val rnd = new Random(spec.seed)
    val d = spec.d

    // Per-dimension scale profile, permuted so informative dims are spread.
    val scales = new Array[Double](d)
    var j = 0
    while (j < d) {
      scales(j) =
        if (spec.skewed) math.pow(1.0 + j, -0.6) // power-law decay
        else 0.8 + 0.4 * rnd.nextDouble()        // comparable scales
      j += 1
    }
    shuffle(scales, new Random(spec.seed + 1))

    val centers = Array.fill(spec.clusters) {
      val c = new Array[Double](d)
      var t = 0
      while (t < d) {
        val g = rnd.nextGaussian()
        c(t) = (if (spec.skewed) math.abs(g) else g) * scales(t)
        t += 1
      }
      c
    }

    val noise = 0.35 // within-cluster spread, relative to each dimension's scale
    def draw(r: Random): Array[Float] = {
      val c = centers(r.nextInt(spec.clusters))
      val v = new Array[Float](d)
      var t = 0
      while (t < d) {
        var x = c(t) + r.nextGaussian() * scales(t) * noise
        if (spec.skewed && x < 0) x = -x // keep histogram-style non-negativity
        v(t) = x.toFloat
        t += 1
      }
      v
    }

    val dataRnd = new Random(spec.seed + 2)
    val queryRnd = new Random(spec.seed + 3)
    val vectors = IndexedSeq.fill(spec.n)(draw(dataRnd))
    val queries = IndexedSeq.fill(spec.nQueries)(draw(queryRnd))
    Dataset(spec, vectors, queries)
  }

  private def shuffle(a: Array[Double], r: Random): Unit = {
    var i = a.length - 1
    while (i > 0) {
      val j = r.nextInt(i + 1)
      val t = a(i); a(i) = a(j); a(j) = t
      i -= 1
    }
  }

  /** Exact KNN ids per query by double-precision brute force (ground truth
    * for recall; tie-break on id for determinism).
    */
  def groundTruth(vectors: IndexedSeq[Array[Float]],
                  queries: IndexedSeq[Array[Float]], k: Int): Array[Array[Long]] =
    queries.iterator.map { q =>
      val dists = Array.tabulate(vectors.length)(i => (Kernels.l2Ref(vectors(i), q), i.toLong))
      dists.sortBy { case (dist, id) => (dist, id) }.take(k).map(_._2)
    }.toArray

  /** recall@k of a result id set against ground truth. */
  def recall(result: Seq[Long], truth: Array[Long]): Double = {
    val t = truth.toSet
    result.count(t.contains).toDouble / truth.length
  }

  /** Sample skewness of the pooled per-dimension marginals — used by the
    * Table 1 summary to verify the normal-vs-skewed classification.
    */
  def meanAbsSkewness(vectors: IndexedSeq[Array[Float]]): Double = {
    val d = vectors.head.length
    val sampled = 32 // dimensions, evenly spaced
    val dims = (0 until d by math.max(1, d / sampled)).take(sampled)
    val skews = dims.map { dim =>
      val xs = vectors.map(_(dim).toDouble)
      val n = xs.length
      val mean = xs.sum / n
      val m2 = xs.map(x => (x - mean) * (x - mean)).sum / n
      val m3 = xs.map(x => math.pow(x - mean, 3)).sum / n
      if (m2 <= 1e-12) 0.0 else math.abs(m3 / math.pow(m2, 1.5))
    }
    skews.sum / skews.length
  }

  /** Uniform random standard-normal collection (kernel microbenches). */
  def gaussian(n: Int, d: Int, seed: Long): IndexedSeq[Array[Float]] = {
    val rnd = new Random(seed)
    IndexedSeq.fill(n) {
      val v = new Array[Float](d)
      var j = 0
      while (j < d) { v(j) = rnd.nextGaussian().toFloat; j += 1 }
      v
    }
  }
}
