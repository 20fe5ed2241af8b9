package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.core.{NaryBucket, NarySearcher, PdxLayout, Pruner}
import repro.data.VectorData
import repro.prune.{AdSampling, Bond}

class PruningPowerSpec extends AnyFunSuite {

  private def clustered(n: Int, d: Int, seed: Long, skewed: Boolean = false) =
    VectorData.generate(VectorData.DatasetSpec("t", d, n, 6, skewed, clusters = 8, seed = seed))

  test("NeverPrune yields zero pruning power") {
    val ds = clustered(200, 16, seed = 1)
    val means = PdxLayout.globalMeans(ds.vectors)
    val power = PruningPower.perQuery(ds.vectors, means, Pruner.NeverPrune(16), ds.queries)
    assert(power.forall(_ == 0.0))
  }

  test("pruning power is within [0, 1) and positive for BOND on clustered data") {
    val ds = clustered(1000, 48, seed = 2, skewed = true)
    val means = PdxLayout.globalMeans(ds.vectors)
    val power = PruningPower.perQuery(ds.vectors, means, new Bond(48, Bond.DistanceToMeans), ds.queries)
    assert(power.forall(p => p >= 0.0 && p < 1.0))
    assert(power.max > 0.1, s"max power ${power.max}")
  }

  test("ADSampling pruning power is positive on clustered data") {
    val ds = clustered(1000, 48, seed = 3)
    val (ads, space) = {
      val a = new AdSampling(48, seed = 5)
      (a, a.transformData(ds.vectors))
    }
    val means = PdxLayout.globalMeans(space)
    val power = PruningPower.perQuery(space, means, ads, ds.queries)
    assert(power.max > 0.1, s"max power ${power.max}")
  }

  test("distance-to-means order prunes at least as well as sequential for BOND") {
    val ds = clustered(1000, 64, seed = 4, skewed = true)
    val means = PdxLayout.globalMeans(ds.vectors)
    val seqP = PruningPower.perQuery(ds.vectors, means, new Bond(64, Bond.Sequential), ds.queries)
    val dtmP = PruningPower.perQuery(ds.vectors, means, new Bond(64, Bond.DistanceToMeans), ds.queries)
    assert(dtmP.sum >= seqP.sum * 0.9, s"dtm=${dtmP.sum} seq=${seqP.sum}")
  }

  test("summarize orders best >= p50 >= p25 >= worst") {
    val s = PruningPower.summarize(IndexedSeq(0.1, 0.5, 0.9, 0.3, 0.7))
    assert(s.best == 90.0 && s.worst == 10.0)
    assert(s.best >= s.p50 && s.p50 >= s.p25 && s.p25 >= s.worst)
  }

  test("summarize of constant powers is flat") {
    val s = PruningPower.summarize(IndexedSeq.fill(5)(0.42))
    assert(s.best == 42.0 && s.p50 == 42.0 && s.p25 == 42.0 && s.worst == 42.0)
  }

  test("exact pruning preserves the KNN result (power simulation is faithful)") {
    // perQuery counts a NarySearcher(k, deltaD = 1) run: that same search
    // must return the exact KNN, and its count must repeat.
    val ds = clustered(400, 24, seed = 6)
    val means = PdxLayout.globalMeans(ds.vectors)
    val bond = new Bond(24, Bond.DistanceToMeans)
    val bucket = NaryBucket.pack(ds.vectors, ds.ids)
    ds.queries.foreach { q =>
      TestUtil.assertExactKnn(new NarySearcher(10, 1).search(Seq(bucket), q, bond).sorted,
                              ds.vectors, q, 10)
    }
    val a = PruningPower.perQuery(ds.vectors, means, bond, ds.queries)
    val b = PruningPower.perQuery(ds.vectors, means, bond, ds.queries)
    assert(a == b)
  }
}
