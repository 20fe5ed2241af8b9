package repro.prune

import repro.core.{PreparedQuery, Pruner}
import repro.linalg.Mat

/** ADSampling [Gao & Long 2023]: random orthogonal projection of the
  * collection, then a hypothesis test on the partially computed distance.
  *
  * After visiting the first `dv` dims of the rotated space, the partial
  * squared distance `p` is an unbiased sample of `dv/D` of the full squared
  * distance; the test prunes when
  *   `p * D / dv > τ * (1 + ε0/√dv)²`
  * i.e. when even the (1+ε0/√dv)-inflated estimate exceeds the threshold.
  * ε0 = 2.1, the value the paper (§6.1) and the ADSampling authors fix.
  *
  * Expressed in the [[Pruner]] contract as a bound:
  *   `bound(p, dv) = p * D / (dv * (1+ε0/√dv)²)`, prune iff bound > τ.
  * At `dv == D` the bound equals the exact distance.
  */
final class AdSampling(val d: Int, seed: Long = 17) extends Pruner {

  val name = "ADSampling"
  val isExact = false

  /** The random rotation Ω (row-major, D x D). */
  val rotation: Mat = Mat.randomOrthogonal(d, seed)

  /** factor(dv) = D / (dv * (1+ε0/√dv)²), precomputed; factor(D) is pinned
    * to 1 so the end-of-vector test is the exact comparison.
    */
  private val factor: Array[Float] = {
    val epsilon = 2.1 // ε0, fixed by the paper (§6.1)
    val f = new Array[Float](d + 1)
    var dv = 1
    while (dv <= d) {
      val ratio = 1.0 + epsilon / math.sqrt(dv.toDouble)
      f(dv) = (d.toDouble / (dv * ratio * ratio)).toFloat
      dv += 1
    }
    f(d) = 1f
    f
  }

  override def transformData(vecs: IndexedSeq[Array[Float]]): IndexedSeq[Array[Float]] =
    vecs.map(rotation.mulVecF)

  override def transformVector(v: Array[Float]): Array[Float] = rotation.mulVecF(v)

  def prepareQuery(q: Array[Float]): PreparedQuery = {
    val rotated = rotation.mulVecF(q)
    new PreparedQuery {
      val query: Array[Float] = rotated
      def order(means: Array[Float]): Array[Int] = null
      def bound(partial: Float, dimsVisited: Int, vecSuffixSq: Float): Float =
        partial * factor(dimsVisited)
    }
  }
}
