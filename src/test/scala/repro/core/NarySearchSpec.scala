package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.data.VectorData
import repro.prune.{AdSampling, Bond, Bsa}

class NarySearchSpec extends AnyFunSuite {

  private def clustered(n: Int, d: Int, seed: Long, skewed: Boolean = false) =
    VectorData.generate(VectorData.DatasetSpec("t", d, n, 6, skewed, clusters = 8, seed = seed))

  test("NaryBucket.pack stores vectors contiguously with correct suffix norms") {
    val vecs = VectorData.gaussian(5, 7, seed = 3)
    val b = NaryBucket.pack(vecs, vecs.indices.map(_.toLong), withSuffixNorms = true)
    assert(b.n == 5 && b.d == 7)
    vecs.indices.foreach { i =>
      assert(b.data.slice(i * 7, (i + 1) * 7).toSeq == vecs(i).toSeq)
      val expect = vecs(i).map(x => x.toDouble * x).sum
      assert(math.abs(b.suffixSqNorms(i * 8) - expect) < 1e-4 * (1 + expect))
      assert(b.suffixSqNorms(i * 8 + 7) == 0f)
    }
  }

  for (deltaD <- Seq(1, 8, 32)) {
    test(s"NarySearcher + PartialDistance is exact (deltaD=$deltaD)") {
      val d = 40
      val ds = clustered(600, d, seed = 5)
      val buckets = Seq(
        NaryBucket.pack(ds.vectors.take(300), ds.ids.take(300)),
        NaryBucket.pack(ds.vectors.drop(300), ds.ids.drop(300))
      )
      val searcher = new NarySearcher(10, deltaD)
      ds.queries.foreach { q =>
        val heap = searcher.search(buckets, q, TestUtil.PartialDistance(d))
        TestUtil.assertExactKnn(heap.sorted, ds.vectors, q, 10)
      }
    }
  }

  for (crit <- Seq(Bond.Sequential, Bond.Decreasing, Bond.DistanceToMeans, Bond.DimensionZones);
       deltaD <- Seq(1, 8)) {
    test(s"NarySearcher + PDX-BOND(${crit.label}) is exact (deltaD=$deltaD)") {
      val d = 48
      val ds = clustered(800, d, seed = 7, skewed = true)
      val buckets = Seq(
        NaryBucket.pack(ds.vectors.take(500), ds.ids.take(500)),
        NaryBucket.pack(ds.vectors.drop(500), ds.ids.drop(500))
      )
      val searcher = new NarySearcher(10, deltaD)
      ds.queries.foreach { q =>
        val heap = searcher.search(buckets, q, new Bond(d, crit))
        TestUtil.assertExactKnn(heap.sorted, ds.vectors, q, 10)
      }
    }
  }

  test("NarySearcher visits dimensions in the pruner's order for the bucket means") {
    // A probe pruner that reverses the dimensions and records, per bound
    // call, the partial distance it is handed.
    val d = 16
    val ds = clustered(200, d, seed = 19)
    val bucket = NaryBucket.pack(ds.vectors, ds.ids)
    val reversed = Array.tabulate(d)(j => d - 1 - j)
    var seenMeans: Array[Float] = null
    val partials = scala.collection.mutable.ArrayBuffer.empty[(Int, Float)]
    val probe = new Pruner {
      val name = "probe"
      val isExact = true
      val d: Int = 16
      def prepareQuery(q: Array[Float]): PreparedQuery = new PreparedQuery {
        val query: Array[Float] = q
        def order(means: Array[Float]): Array[Int] = { seenMeans = means; reversed }
        def bound(partial: Float, dimsVisited: Int, vecSuffixSq: Float): Float = {
          partials += ((dimsVisited, partial))
          Float.NegativeInfinity
        }
      }
    }
    val q = ds.queries.head
    new NarySearcher(1, deltaD = 1).search(Seq(bucket), q, probe)
    assert(seenMeans eq bucket.means)
    // Vector 0 fills the heap; vector 1 is the first whose bound is asked.
    val v = ds.vectors(1)
    var expect = 0f
    (1 until d).foreach { dv =>
      val dim = reversed(dv - 1)
      val t = q(dim) - v(dim)
      expect += t * t
      assert(partials(dv - 1) == ((dv, expect)), s"dv=$dv")
    }
  }

  test("k larger than the collection returns every vector in (dist, id) order") {
    val d = 12
    val ds = clustered(40, d, seed = 37)
    val bucket = NaryBucket.pack(ds.vectors, ds.ids)
    val q = ds.queries.head
    TestUtil.assertAllInOrder(new NarySearcher(100, 4).search(Seq(bucket), q, new Bond(d)).sorted,
                              ds.vectors, q)
  }

  test("NarySearcher rejects a mismatched or non-finite query") {
    val ds = clustered(200, 8, seed = 21)
    val bucket = NaryBucket.pack(ds.vectors, ds.ids)
    val searcher = new NarySearcher(10, 4)
    for (qd <- Seq(5, 12)) {
      val e = intercept[IllegalArgumentException] {
        searcher.search(Seq(bucket), new Array[Float](qd), new Bond(8, Bond.Sequential))
      }
      assert(e.getMessage.contains(s"query has $qd dimensions but the data has 8"))
    }
    val q = ds.queries.head.clone()
    q(2) = Float.NaN
    val e = intercept[IllegalArgumentException](searcher.search(Seq(bucket), q, new Bond(8)))
    assert(e.getMessage.contains("dimension 2"), e.getMessage)
  }

  test("NarySearcher + BSA(m=1) is exact") {
    val d = 32
    val ds = clustered(500, d, seed = 7, skewed = true)
    val bsa = Bsa.fitExact(ds.vectors)
    val space = bsa.transformData(ds.vectors)
    val bucket = NaryBucket.pack(space, ds.ids, withSuffixNorms = true)
    val searcher = new NarySearcher(10, 8)
    ds.queries.foreach { q =>
      val heap = searcher.search(Seq(bucket), q, bsa)
      TestUtil.assertExactKnn(heap.sorted, ds.vectors, q, 10)
    }
  }

  test("NarySearcher + ADSampling reaches recall@10 >= 0.9") {
    val d = 64
    val ds = clustered(1500, d, seed = 9)
    val ads = new AdSampling(d, seed = 11)
    val space = ads.transformData(ds.vectors)
    val bucket = NaryBucket.pack(space, ds.ids)
    val gt = VectorData.groundTruth(ds.vectors, ds.queries, 10)
    val searcher = new NarySearcher(10, 16)
    val recalls = ds.queries.indices.map { qi =>
      VectorData.recall(searcher.search(Seq(bucket), ds.queries(qi), ads).idsSorted, gt(qi))
    }
    assert(recalls.sum / recalls.length >= 0.9)
  }

  test("NarySearcher and PdxSearcher agree under the same exact pruner") {
    val d = 24
    val ds = clustered(400, d, seed = 13)
    val nb = NaryBucket.pack(ds.vectors, ds.ids)
    val pb = PdxLayout.pack(ds.vectors, ds.ids, 64)
    val q = ds.queries.head
    val a = new NarySearcher(10, 8).search(Seq(nb), q, TestUtil.PartialDistance(d)).idsSorted
    val b = new PdxSearcher(10).search(pb, q, TestUtil.PartialDistance(d)).idsSorted
    assert(a.toSet == b.toSet)
  }

  test("NarySearcher counts operations when profiled") {
    val d = 48
    val ds = clustered(800, d, seed = 15)
    val prof = new SearchProfiler
    val searcher = new NarySearcher(10, 16, profiler = prof)
    val bucket = NaryBucket.pack(ds.vectors, ds.ids)
    searcher.search(Seq(bucket), ds.queries.head, TestUtil.PartialDistance(d))
    assert(prof.dimValuesScanned > 0 && prof.dimValuesScanned <= 800L * d)
    assert(prof.distanceNanos > 0)
  }

  // --- linear scans ---

  test("all linear scans agree with double-precision brute force") {
    val d = 33
    val ds = clustered(500, d, seed = 17)
    val nary = PdxLayout.packNary(ds.vectors)
    val dsm = PdxLayout.packDsm(ds.vectors)
    val blocks = PdxLayout.pack(ds.vectors, ds.ids, 64)
    ds.queries.foreach { q =>
      TestUtil.assertExactKnn(LinearScan.naryKnn(nary, 500, d, q, 10).sorted, ds.vectors, q, 10)
      TestUtil.assertExactKnn(LinearScan.naryScalarKnn(nary, 500, d, q, 10).sorted, ds.vectors, q, 10)
      TestUtil.assertExactKnn(LinearScan.dsmKnn(dsm, 500, q, 10).sorted, ds.vectors, q, 10)
      TestUtil.assertExactKnn(new PdxSearcher(10).search(blocks, q, Pruner.NeverPrune(d)).sorted,
                              ds.vectors, q, 10)
      TestUtil.assertExactKnn(LinearScan.gatherKnn(nary, 500, d, q, 10).sorted, ds.vectors, q, 10)
    }
  }
}
