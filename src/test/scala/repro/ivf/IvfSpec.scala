package repro.ivf

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.core._
import repro.data.VectorData
import repro.prune.{AdSampling, Bond, Bsa}

class IvfSpec extends AnyFunSuite {

  private def clustered(n: Int, d: Int, seed: Long, skewed: Boolean = false) =
    VectorData.generate(VectorData.DatasetSpec("t", d, n, 6, skewed, clusters = 8, seed = seed))

  // ---------------- k-means ----------------

  test("KMeans is deterministic in (data, k, seed)") {
    val vecs = clustered(300, 8, seed = 1).vectors
    val a = KMeans.fit(vecs, 5, seed = 9)
    val b = KMeans.fit(vecs, 5, seed = 9)
    a.centroids.zip(b.centroids).foreach { case (x, y) => assert(x.toSeq == y.toSeq) }
  }

  test("KMeans.assign returns the nearest centroid") {
    val vecs = clustered(200, 6, seed = 2).vectors
    val model = KMeans.fit(vecs, 4, seed = 3)
    vecs.take(50).foreach { v =>
      val got = model.assign(v)
      val dists = model.centroids.map(c => Kernels.l2Ref(c, v))
      assert(dists(got) == dists.min)
    }
  }

  test("KMeans recovers well-separated clusters") {
    // 3 tight clusters far apart: inertia after fit should be tiny vs spread.
    val rnd = new java.util.Random(5)
    val centers = Seq(Array(0f, 0f), Array(100f, 0f), Array(0f, 100f))
    val vecs = IndexedSeq.tabulate(300) { i =>
      val c = centers(i % 3)
      Array((c(0) + rnd.nextGaussian() * 0.1).toFloat, (c(1) + rnd.nextGaussian() * 0.1).toFloat)
    }
    val model = KMeans.fit(vecs, 3, iters = 15, seed = 7)
    val inertia = vecs.map(v => Kernels.l2Ref(model.centroids(model.assign(v)), v)).sum / vecs.length
    assert(inertia < 1.0, s"inertia $inertia")
  }

  test("KMeans keeps k centroids even with duplicate points") {
    val vecs = IndexedSeq.fill(50)(Array(1f, 1f)) ++ IndexedSeq.fill(50)(Array(5f, 5f))
    val model = KMeans.fit(vecs, 4, seed = 11)
    assert(model.centroids.length == 4)
  }

  test("KMeans validates arguments") {
    intercept[IllegalArgumentException] { KMeans.fit(IndexedSeq.empty, 2) }
    intercept[IllegalArgumentException] { KMeans.fit(IndexedSeq(Array(1f)), 2) }
  }

  // ---------------- IVF build ----------------

  test("Ivf.partition covers every vector and respects nlist") {
    val ds = clustered(400, 10, seed = 21)
    val part = Ivf.partition(ds.vectors, nlist = 10)
    assert(part.assign.length == 400)
    assert(part.assign.forall(a => a >= 0 && a < 10))
    assert(part.rawCentroids.length == 10)
  }

  test("materialize groups vectors into identical PDX and N-ary buckets") {
    val ds = clustered(400, 12, seed = 23)
    val part = Ivf.partition(ds.vectors, nlist = 8)
    val idx = IvfIndex.materialize(part, ds.vectors, ds.ids, part.rawCentroids, withSuffixNorms = false)
    assert(idx.blocks.map(_.n).sum == 400)
    assert(idx.naryBuckets.map(_.n).sum == 400)
    idx.blocks.zip(idx.naryBuckets).foreach { case (pb, nb) =>
      assert(pb.ids.toSeq == nb.ids.toSeq)
      (0 until pb.n).foreach { i =>
        assert(pb.vectorAt(i).toSeq == nb.data.slice(i * pb.d, (i + 1) * pb.d).toSeq)
      }
    }
    // Every id in exactly one bucket.
    val all = idx.blocks.flatMap(_.ids)
    assert(all.sorted.toSeq == ds.ids.sorted)
  }

  test("materialize rejects a non-finite vector in search space") {
    val ds = clustered(200, 8, seed = 24)
    val part = Ivf.partition(ds.vectors, nlist = 4)
    val space = ds.vectors.map(_.clone())
    space(57)(3) = Float.NaN
    val e = intercept[IllegalArgumentException] {
      IvfIndex.materialize(part, space, ds.ids, part.rawCentroids, withSuffixNorms = false)
    }
    assert(e.getMessage.contains("non-finite value NaN"), e.getMessage)
  }

  test("bucketOf maps centroids to blocks consistently") {
    val ds = clustered(200, 6, seed = 25)
    val part = Ivf.partition(ds.vectors, nlist = 20)
    val idx = IvfIndex.materialize(part, ds.vectors, ds.ids, part.rawCentroids, withSuffixNorms = false)
    (0 until 20).foreach { c =>
      val pos = idx.bucketOf(c)
      if (pos >= 0) {
        // All members of this block were assigned to centroid c.
        idx.blocks(pos).ids.foreach(id => assert(part.assign(id.toInt) == c))
      } else {
        assert(!part.assign.contains(c))
      }
    }
  }

  test("nearestBuckets orders buckets by centroid distance (pdx == nary path)") {
    val ds = clustered(300, 8, seed = 27)
    val part = Ivf.partition(ds.vectors, nlist = 12)
    val idx = IvfIndex.materialize(part, ds.vectors, ds.ids, part.rawCentroids, withSuffixNorms = false)
    val q = ds.queries.head
    val a = idx.nearestBuckets(q, 5, usePdx = true).toSeq
    val b = idx.nearestBuckets(q, 5, usePdx = false).toSeq
    assert(a == b)
    val dists = a.map(c => Kernels.l2Ref(idx.centroids(c), q))
    assert(dists == dists.sorted)
  }

  // ---------------- IVF search ----------------

  test("searchPdx with NeverPrune and nprobe == nlist is exact") {
    val ds = clustered(500, 16, seed = 29)
    val part = Ivf.partition(ds.vectors, nlist = 10)
    val idx = IvfIndex.materialize(part, ds.vectors, ds.ids, part.rawCentroids, withSuffixNorms = false)
    val searcher = new PdxSearcher(10)
    ds.queries.foreach { q =>
      val res = idx.searchPdx(q, 10, nprobe = 10, Pruner.NeverPrune(16), searcher)
      TestUtil.assertExactKnn(res, ds.vectors, q, 10)
    }
  }

  test("searchPdx with BOND and nprobe == nlist is exact") {
    val d = 24
    val ds = clustered(500, d, seed = 31)
    val bond = new Bond(d, Bond.DimensionZones)
    val idx = IvfIndex.build(ds.vectors, ds.ids, nlist = 10, bond)
    val searcher = new PdxSearcher(10)
    ds.queries.foreach { q =>
      val res = idx.searchPdx(q, 10, nprobe = 10, bond, searcher)
      TestUtil.assertExactKnn(res, ds.vectors, q, 10)
    }
  }

  test("recall grows with nprobe") {
    val d = 32
    val ds = clustered(2000, d, seed = 33)
    val part = Ivf.partition(ds.vectors, nlist = 20)
    val idx = IvfIndex.materialize(part, ds.vectors, ds.ids, part.rawCentroids, withSuffixNorms = false)
    val gt = VectorData.groundTruth(ds.vectors, ds.queries, 10)
    val searcher = new PdxSearcher(10)
    def avgRecall(np: Int): Double = {
      val rs = ds.queries.indices.map { qi =>
        val res = idx.searchPdx(ds.queries(qi), 10, np, Pruner.NeverPrune(d), searcher)
        VectorData.recall(res.map(_._1), gt(qi))
      }
      rs.sum / rs.length
    }
    val r1 = avgRecall(1)
    val r5 = avgRecall(5)
    val r20 = avgRecall(20)
    assert(r1 <= r5 + 1e-9 && r5 <= r20 + 1e-9, s"$r1 $r5 $r20")
    assert(r20 > 0.999, s"full probe recall $r20")
  }

  test("PDX-ADS inside IVF matches N-ary-ADS recall and beats 0.85 at full probe") {
    val d = 48
    val ds = clustered(1500, d, seed = 35)
    val ads = new AdSampling(d, seed = 37)
    val part = Ivf.partition(ds.vectors, nlist = 12)
    val idx = IvfIndex.materialize(part, ads.transformData(ds.vectors), ds.ids,
                                   part.rawCentroids.map(ads.transformVector),
                                   withSuffixNorms = false)
    val gt = VectorData.groundTruth(ds.vectors, ds.queries, 10)
    val pdxS = new PdxSearcher(10)
    val naryS = new NarySearcher(10, 16)
    val (pdxR, naryR) = ds.queries.indices.map { qi =>
      val q = ds.queries(qi)
      val a = VectorData.recall(idx.searchPdx(q, 10, 12, ads, pdxS).map(_._1), gt(qi))
      val b = VectorData.recall(idx.searchNary(q, 10, 12, ads, naryS).map(_._1), gt(qi))
      (a, b)
    }.unzip
    val (pa, na) = (pdxR.sum / pdxR.length, naryR.sum / naryR.length)
    assert(pa >= 0.85, s"PDX-ADS recall $pa")
    assert(na >= 0.85, s"N-ary-ADS recall $na")
    assert(math.abs(pa - na) < 0.1, s"recalls diverge: $pa vs $na")
  }

  test("BSA(m=1) inside IVF is exact at full probe in both layouts") {
    val d = 24
    val ds = clustered(600, d, seed = 39, skewed = true)
    val bsa = Bsa.fitExact(ds.vectors)
    val part = Ivf.partition(ds.vectors, nlist = 8)
    val idx = IvfIndex.materialize(part, bsa.transformData(ds.vectors), ds.ids,
                                   part.rawCentroids.map(bsa.transformVector),
                                   withSuffixNorms = true)
    val pdxS = new PdxSearcher(10)
    val naryS = new NarySearcher(10, 8)
    ds.queries.foreach { q =>
      TestUtil.assertExactKnn(idx.searchPdx(q, 10, 8, bsa, pdxS), ds.vectors, q, 10)
      TestUtil.assertExactKnn(idx.searchNary(q, 10, 8, bsa, naryS), ds.vectors, q, 10)
    }
  }

  test("IvfIndex.build in ADSampling space preserves bucket membership vs raw") {
    val d = 16
    val ds = clustered(300, d, seed = 41)
    val ads = new AdSampling(d, seed = 43)
    val part = Ivf.partition(ds.vectors, nlist = 6)
    val rawIdx = IvfIndex.materialize(part, ds.vectors, ds.ids, part.rawCentroids, withSuffixNorms = false)
    val adsIdx = IvfIndex.materialize(part, ads.transformData(ds.vectors), ds.ids,
                                      part.rawCentroids.map(ads.transformVector),
                                      withSuffixNorms = false)
    rawIdx.blocks.zip(adsIdx.blocks).foreach { case (a, b) =>
      assert(a.ids.toSeq == b.ids.toSeq, "identical buckets violated")
    }
  }
}
