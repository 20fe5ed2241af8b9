package repro

import repro.core.{Kernels, PreparedQuery, Pruner}

/** Shared assertions for search-result exactness.
  *
  * Exact searchers are validated against a double-precision brute force.
  * Float kernels can legitimately flip ranks between candidates whose
  * distances differ by less than float rounding, so "exact" is asserted as:
  * every returned distance matches the reference distance of its id, and is
  * within float tolerance of (or below) the reference k-th distance.
  */
object TestUtil {

  /** Deterministic ScalaCheck-driven property loop (the scalatestplus bridge
    * is not in the offline cache, so suites sample generators directly).
    */
  def forAllSampled[A](gen: org.scalacheck.Gen[A], samples: Int = 50)(f: A => Unit): Unit = {
    val params = org.scalacheck.Gen.Parameters.default
    (0 until samples).foreach { i =>
      gen(params, org.scalacheck.rng.Seed(1000L + i)).foreach(f)
    }
  }

  final case class ExactCheck(ok: Boolean, message: String)

  def checkExactKnn(result: Seq[(Long, Float)], vecs: IndexedSeq[Array[Float]],
                    q: Array[Float], k: Int): ExactCheck = {
    val refDists = vecs.indices.map(i => Kernels.l2Ref(vecs(i), q))
    val kth = refDists.sorted.apply(math.min(k, vecs.length) - 1)
    val expectSize = math.min(k, vecs.length)
    if (result.size != expectSize) ExactCheck(ok = false, s"size ${result.size} != $expectSize")
    else {
      val bad = result.iterator.map { case (id, dist) =>
        val ref = refDists(id.toInt)
        val tol = 1e-3 * (1.0 + ref)
        if (math.abs(dist - ref) > tol) Some(s"id=$id dist=$dist != ref=$ref")
        else if (ref > kth + tol) Some(s"id=$id ref=$ref exceeds kth=$kth (non-exact result)")
        else None
      }.collectFirst { case Some(msg) => msg }
      bad match {
        case Some(msg) => ExactCheck(ok = false, msg)
        case None => ExactCheck(ok = true, "")
      }
    }
  }

  def assertExactKnn(result: Seq[(Long, Float)], vecs: IndexedSeq[Array[Float]],
                     q: Array[Float], k: Int): Unit = {
    val c = checkExactKnn(result, vecs, q, k)
    assert(c.ok, c.message)
  }

  /** Exact partial-distance pruner with sequential access (§2.3: "the
    * partially computed distance itself"). It is `Bond(d, Sequential)`
    * without declaring `isPartialBound`, so it drives the searchers'
    * generic bound loops rather than PDX-BOND's fast path.
    */
  final case class PartialDistance(d: Int) extends Pruner {
    val name = "partial-seq"
    val isExact = true
    def prepareQuery(q: Array[Float]): PreparedQuery = new PreparedQuery {
      val query: Array[Float] = q
      def order(means: Array[Float]): Array[Int] = null
      def bound(partial: Float, dimsVisited: Int, vecSuffixSq: Float): Float = partial
    }
  }

  /** A search with k above the collection size returns every vector, with
    * its exact distance, ascending by (dist, id).
    */
  def assertAllInOrder(result: Seq[(Long, Float)], vecs: IndexedSeq[Array[Float]],
                       q: Array[Float]): Unit = {
    assert(result.map(_._1).sorted == vecs.indices.map(_.toLong), "not every vector returned")
    assert(result == result.sortBy { case (id, dist) => (dist, id) }, "not in (dist, id) order")
    assertExactKnn(result, vecs, q, vecs.length)
  }
}
