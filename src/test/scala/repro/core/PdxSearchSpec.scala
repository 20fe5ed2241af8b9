package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.data.VectorData
import repro.prune.{AdSampling, Bond, Bsa}

/** Exactness and recall invariants of the PDXearch framework (§4). */
class PdxSearchSpec extends AnyFunSuite {

  private def clustered(n: Int, d: Int, seed: Long, skewed: Boolean = false) =
    VectorData.generate(VectorData.DatasetSpec("t", d, n, 8, skewed, clusters = 8, seed = seed))

  // --- exact pruners must equal brute force on every configuration ---
  for {
    d <- Seq(6, 32, 96)
    bs <- Seq(16, 64, 200)
    k <- Seq(1, 10)
  } {
    test(s"PDXearch + PartialDistance is exact (d=$d, blockSize=$bs, k=$k)") {
      val ds = clustered(600, d, seed = d * 100L + bs)
      val blocks = PdxLayout.pack(ds.vectors, ds.ids, bs)
      val searcher = new PdxSearcher(k)
      ds.queries.foreach { q =>
        val heap = searcher.search(blocks, q, TestUtil.PartialDistance(d))
        TestUtil.assertExactKnn(heap.sorted, ds.vectors, q, k)
      }
    }
  }

  for (crit <- Seq(Bond.Sequential, Bond.Decreasing, Bond.DistanceToMeans, Bond.DimensionZones)) {
    test(s"PDXearch + PDX-BOND(${crit.label}) is exact") {
      val d = 48
      val ds = clustered(800, d, seed = 7, skewed = true)
      val blocks = PdxLayout.pack(ds.vectors, ds.ids, 100)
      val searcher = new PdxSearcher(10)
      ds.queries.foreach { q =>
        val heap = searcher.search(blocks, q, new Bond(d, crit))
        TestUtil.assertExactKnn(heap.sorted, ds.vectors, q, 10)
      }
    }
  }

  test("PDXearch + NeverPrune equals brute force, scanning every block in START") {
    val d = 20
    val ds = clustered(500, d, seed = 11)
    val blocks = PdxLayout.pack(ds.vectors, ds.ids, 64)
    val prof = new SearchProfiler
    val searcher = new PdxSearcher(10, profiler = prof)
    ds.queries.foreach { q =>
      prof.reset()
      TestUtil.assertExactKnn(searcher.search(blocks, q, Pruner.NeverPrune(d)).sorted,
                              ds.vectors, q, 10)
      assert(prof.dimValuesScanned == 500L * d && prof.boundEvals == 0)
    }
  }

  test("PDXearch + BSA(m=1) is exact") {
    val d = 32
    val ds = clustered(700, d, seed = 13, skewed = true)
    val bsa = Bsa.fitExact(ds.vectors)
    val space = bsa.transformData(ds.vectors)
    val blocks = PdxLayout.pack(space, ds.ids, 64, withSuffixNorms = true)
    val searcher = new PdxSearcher(10)
    ds.queries.foreach { q =>
      val heap = searcher.search(blocks, q, bsa)
      // Distances are preserved by the rotation: compare against raw space.
      TestUtil.assertExactKnn(heap.sorted, ds.vectors, q, 10)
    }
  }

  test("PDXearch + ADSampling reaches recall@10 >= 0.9 on clustered data") {
    val d = 64
    val ds = clustered(2000, d, seed = 17)
    val ads = new AdSampling(d, seed = 19)
    val space = ads.transformData(ds.vectors)
    val blocks = PdxLayout.pack(space, ds.ids, 64)
    val gt = VectorData.groundTruth(ds.vectors, ds.queries, 10)
    val searcher = new PdxSearcher(10)
    val recalls = ds.queries.indices.map { qi =>
      val heap = searcher.search(blocks, ds.queries(qi), ads)
      VectorData.recall(heap.idsSorted, gt(qi))
    }
    val avg = recalls.sum / recalls.length
    assert(avg >= 0.9, s"avg recall $avg")
  }

  test("PDXearch + learned BSA reaches recall@10 >= 0.85 on clustered data") {
    val d = 64
    val ds = clustered(2000, d, seed = 23, skewed = true)
    val bsa = Bsa.fit(ds.vectors)
    val space = bsa.transformData(ds.vectors)
    val blocks = PdxLayout.pack(space, ds.ids, 64, withSuffixNorms = true)
    val gt = VectorData.groundTruth(ds.vectors, ds.queries, 10)
    val searcher = new PdxSearcher(10)
    val recalls = ds.queries.indices.map { qi =>
      val heap = searcher.search(blocks, ds.queries(qi), bsa)
      VectorData.recall(heap.idsSorted, gt(qi))
    }
    val avg = recalls.sum / recalls.length
    assert(avg >= 0.85, s"avg recall $avg")
  }

  test("PDXearch sizes its first WARMUP step to the pruner's minPruneDims") {
    // A pruner that records the first dimsVisited its bound is asked about;
    // the N-ary searcher (Δd = 4) must wait for minPruneDims as well, and
    // neither asks a bound when minPruneDims covers every dimension.
    val d = 64
    val ds = clustered(300, d, seed = 53)
    val blocks = PdxLayout.pack(ds.vectors, ds.ids, 64)
    val bucket = NaryBucket.pack(ds.vectors, ds.ids)
    for (minDims <- Seq(16, d)) {
      var firstAsked = -1
      val probe = new Pruner {
        val name = "probe"
        val isExact = true
        val d: Int = 64
        def prepareQuery(q: Array[Float]): PreparedQuery = new PreparedQuery {
          val query: Array[Float] = q
          def order(means: Array[Float]): Array[Int] = null
          override def minPruneDims: Int = minDims
          def bound(partial: Float, dimsVisited: Int, vecSuffixSq: Float): Float = {
            if (firstAsked < 0) firstAsked = dimsVisited
            Float.NegativeInfinity
          }
        }
      }
      val expect = if (minDims < d) minDims else -1
      new PdxSearcher(5).search(blocks, ds.queries.head, probe)
      assert(firstAsked == expect, s"PDXearch: first bound asked at dv=$firstAsked")
      firstAsked = -1
      new NarySearcher(5, deltaD = 4).search(Seq(bucket), ds.queries.head, probe)
      assert(firstAsked == expect, s"N-ary: first bound asked at dv=$firstAsked")
    }
  }

  test("k larger than the collection returns every vector") {
    val d = 12
    val ds = clustered(40, d, seed = 37)
    val blocks = PdxLayout.pack(ds.vectors, ds.ids, 16)
    val searcher = new PdxSearcher(100)
    val q = ds.queries.head
    val heap = searcher.search(blocks, q, new Bond(d))
    assert(heap.size == 40)
    TestUtil.assertAllInOrder(heap.sorted, ds.vectors, q)
  }

  // --- hostile input: fail fast, never a silently wrong answer ---

  private lazy val small = clustered(200, 8, seed = 59)

  for ((label, pruner) <- Seq("PDX-BOND" -> new Bond(8, Bond.Sequential),
                              "NeverPrune" -> Pruner.NeverPrune(8))) {
    test(s"$label rejects a query whose dimensionality does not match the blocks") {
      val blocks = PdxLayout.pack(small.vectors, small.ids, 64)
      for (qd <- Seq(5, 12)) {
        val e = intercept[IllegalArgumentException] {
          new PdxSearcher(10).search(blocks, new Array[Float](qd), pruner)
        }
        assert(e.getMessage.contains(s"query has $qd dimensions but the data has 8"))
      }
    }

    test(s"$label rejects a non-finite query") {
      val blocks = PdxLayout.pack(small.vectors, small.ids, 64)
      for (bad <- Seq(Float.NaN, Float.PositiveInfinity)) {
        val q = small.queries.head.clone()
        q(3) = bad
        val e = intercept[IllegalArgumentException] {
          new PdxSearcher(10).search(blocks, q, pruner)
        }
        assert(e.getMessage.contains("dimension 3"), e.getMessage)
      }
    }
  }

  test("ties at the k-th distance keep the smallest ids for every block size") {
    // 30 copies of the query stored with descending ids, among 200 others.
    val d = 8
    val q = small.queries.head
    val vecs = IndexedSeq.fill(30)(q.clone()) ++ small.vectors
    val ids = (0L until 30L).reverse ++ (100L until 300L)
    for (bs <- Seq(8, 64, 1000);
         pruner <- Seq(Pruner.NeverPrune(d), new Bond(d, Bond.DistanceToMeans))) {
      val blocks = PdxLayout.pack(vecs, ids, bs)
      val got = new PdxSearcher(10).search(blocks, q, pruner).sorted
      assert(got == (0L until 10L).map(id => (id, 0f)), s"blockSize=$bs ${pruner.name}")
    }
  }

  test("single-vector blocks work") {
    val d = 10
    val ds = clustered(30, d, seed = 41)
    val blocks = PdxLayout.pack(ds.vectors, ds.ids, 1)
    val searcher = new PdxSearcher(3)
    ds.queries.foreach { q =>
      val heap = searcher.search(blocks, q, new Bond(d))
      TestUtil.assertExactKnn(heap.sorted, ds.vectors, q, 3)
    }
  }

  test("searcher instances are reusable across queries and block shapes") {
    val searcher = new PdxSearcher(4)
    for (d <- Seq(8, 24); n <- Seq(50, 300)) {
      val ds = clustered(n, d, seed = d * 10L + n)
      val blocks = PdxLayout.pack(ds.vectors, ds.ids, 32)
      ds.queries.take(3).foreach { q =>
        val heap = searcher.search(blocks, q, new Bond(d))
        TestUtil.assertExactKnn(heap.sorted, ds.vectors, q, 4)
      }
    }
  }

  test("profiler accounts distance and bounds time when attached") {
    val d = 64
    val ds = clustered(2000, d, seed = 43)
    val prof = new SearchProfiler
    val searcher = new PdxSearcher(10, profiler = prof)
    val blocks = PdxLayout.pack(ds.vectors, ds.ids, 64)
    searcher.search(blocks, ds.queries.head, new Bond(d, Bond.DistanceToMeans))
    assert(prof.distanceNanos > 0)
    assert(prof.dimValuesScanned > 0)
    assert(prof.dimValuesScanned <= 2000L * d)
    assert(prof.boundEvals > 0)
    prof.reset()
    assert(prof.distanceNanos == 0 && prof.boundsNanos == 0 && prof.dimValuesScanned == 0)
  }

  test("pruning reduces scanned dimension values vs linear scan on clustered data") {
    val d = 96
    val ds = clustered(3000, d, seed = 47, skewed = true)
    val prof = new SearchProfiler
    val searcher = new PdxSearcher(10, profiler = prof)
    val blocks = PdxLayout.pack(ds.vectors, ds.ids, 64)
    searcher.search(blocks, ds.queries.head, new Bond(d, Bond.DistanceToMeans))
    val total = 3000L * d
    assert(prof.dimValuesScanned < total, s"scanned ${prof.dimValuesScanned} of $total")
  }
}
