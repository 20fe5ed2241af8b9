package perfbench

import java.util.concurrent.{Callable, Executors}
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

import repro.core.Kernels

/** Order statistics over recorded samples. */
object Stats {

  /** Nearest-rank percentile (`p` in (0, 1]) of an ascending array. */
  def percentile(sorted: Array[Double], p: Double): Double = {
    val rank = math.ceil(p * sorted.length).toInt
    sorted(math.max(0, math.min(sorted.length - 1, rank - 1)))
  }

  /** Samples strictly above the nearest-rank `p` percentile. */
  def beyond(count: Int, p: Double): Int = count - math.ceil(p * count).toInt

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }
}

/** Minimal JSON rendering for the result line and the run record: objects
  * are ordered `Seq[(String, Any)]`, arrays are other `Seq`s, and numbers
  * keep every digit.
  */
object Json {
  def obj(fields: (String, Any)*): Seq[(String, Any)] = fields

  def render(v: Any): String = v match {
    case null => "null"
    case s: String => quote(s)
    case b: Boolean => b.toString
    case i: Int => i.toString
    case l: Long => l.toString
    case d: Double =>
      require(!d.isNaN && !d.isInfinite, s"non-finite number $d")
      java.lang.Double.toString(d)
    case fields: Seq[_] if fields.forall(isField) =>
      fields.map { case (key: String, x) => quote(key) + ":" + render(x) }.mkString("{", ",", "}")
    case xs: Seq[_] => xs.map(render).mkString("[", ",", "]")
    case other => quote(other.toString)
  }

  private def isField(x: Any): Boolean = x match {
    case (_: String, _) => true
    case _ => false
  }

  private def quote(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"' => sb.append("\\\"")
      case '\\' => sb.append("\\\\")
      case '\n' => sb.append("\\n")
      case '\t' => sb.append("\\t")
      case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
      case c => sb.append(c)
    }
    sb.append('"').toString
  }
}

/** Exact top-k of every query by double-precision brute force, owned by the
  * benchmark so that it does not share code with the searches it checks.
  * Each query keeps a bounded max-heap of its k best (distance, id) pairs;
  * queries are split over at most `threads` worker threads.
  */
final class Truth(vectors: IndexedSeq[Array[Float]], queries: IndexedSeq[Array[Float]],
                  val k: Int, threads: Int) {
  require(vectors.length >= k, s"k=$k exceeds the collection size ${vectors.length}")

  /** Per query: the k nearest ids and their distances, ascending by (dist, id). */
  val (ids: Array[Array[Long]], dists: Array[Array[Double]]) = {
    val pool = Executors.newFixedThreadPool(threads)
    try {
      val tasks = queries.indices.map(qi => new Callable[(Array[Long], Array[Double])] {
        def call(): (Array[Long], Array[Double]) = topK(queries(qi))
      })
      val out = pool.invokeAll(tasks.asJava).asScala.map(_.get())
      (out.map(_._1).toArray, out.map(_._2).toArray)
    } finally {
      pool.shutdown()
    }
  }

  private def topK(q: Array[Float]): (Array[Long], Array[Double]) = {
    // Max-heap on (distance, id): the root is the worst of the k kept.
    val hd = new Array[Double](k)
    val hi = new Array[Long](k)
    var size = 0
    def worse(a: Int, b: Int): Boolean = hd(a) > hd(b) || (hd(a) == hd(b) && hi(a) > hi(b))
    def swap(a: Int, b: Int): Unit = {
      val td = hd(a); hd(a) = hd(b); hd(b) = td
      val ti = hi(a); hi(a) = hi(b); hi(b) = ti
    }
    var i = 0
    while (i < vectors.length) {
      val dist = Kernels.l2Ref(vectors(i), q)
      if (size < k) {
        hd(size) = dist; hi(size) = i.toLong
        var c = size
        size += 1
        while (c > 0 && worse(c, (c - 1) / 2)) { swap(c, (c - 1) / 2); c = (c - 1) / 2 }
      } else if (dist < hd(0)) {
        hd(0) = dist; hi(0) = i.toLong
        var c = 0
        var done = false
        while (!done) {
          val l = 2 * c + 1
          val r = l + 1
          var m = c
          if (l < k && worse(l, m)) m = l
          if (r < k && worse(r, m)) m = r
          if (m == c) done = true else { swap(c, m); c = m }
        }
      }
      i += 1
    }
    val order = (0 until size).sortBy(j => (hd(j), hi(j)))
    (order.map(hi).toArray, order.map(hd).toArray)
  }

  /** Distances are float sums; the check allows this share of the true
    * distance, plus an absolute slack on the query's scale, as rounding.
    */
  private val relTol = 1e-3

  private def close(got: Double, want: Double, scale: Double): Boolean =
    math.abs(got - want) <= relTol * want + 1e-6 * scale

  /** Why a result for query `qi` is wrong, or None if it is right. Every
    * result must hold k distinct in-range ids, each with its true
    * distance. An exact result must also hold the true top-k distances;
    * which ids tie at the k-th distance is free.
    */
  def check(qi: Int, result: IndexedSeq[(Long, Float)], exact: Boolean): Option[String] = {
    val q = queries(qi)
    val scale = Kernels.l2Ref(q, new Array[Float](q.length)) + 1.0
    if (result == null) return Some("threw")
    if (result.length < k) return Some(s"returned ${result.length} < $k results")
    val got = result.take(k)
    if (got.map(_._1).distinct.length != k) return Some("repeated ids")
    val trueDists = got.map { case (id, dist) =>
      if (id < 0 || id >= vectors.length) return Some(s"id $id out of range")
      val t = Kernels.l2Ref(vectors(id.toInt), q)
      if (!close(dist.toDouble, t, scale)) return Some(s"id $id distance $dist, true $t")
      t
    }
    if (exact) {
      val sorted = trueDists.sorted
      var j = 0
      while (j < k) {
        if (!close(sorted(j), dists(qi)(j), scale))
          return Some(s"rank ${j + 1} distance ${sorted(j)}, brute force ${dists(qi)(j)}")
        j += 1
      }
    }
    None
  }

  /** Share of the true top-k ids that the result holds. */
  def recall(qi: Int, result: IndexedSeq[(Long, Float)]): Double = {
    val truth = ids(qi).toSet
    result.take(k).count(r => truth.contains(r._1)).toDouble / k
  }
}

/** Moves the calling thread from CPU to CPU. On a shared host each virtual
  * CPU runs at its own, changing speed, and a single busy thread tends to
  * stay on one CPU for a whole run; so the client visits every CPU it may
  * use in turn, and each run samples all of them alike. Uses `taskset` on
  * the thread id; where that is unavailable, threads stay where the
  * scheduler puts them.
  */
object Cpus {
  /** CPU ids this process may run on, from /proc/self/status. */
  val allowed: Seq[Int] = try {
    val src = scala.io.Source.fromFile("/proc/self/status")
    try {
      src.getLines().find(_.startsWith("Cpus_allowed_list:")).toSeq
        .flatMap(_.split(":", 2)(1).trim.split(","))
        .flatMap { part =>
          part.split("-") match {
            case Array(lo, hi) => lo.toInt to hi.toInt
            case Array(one) => Seq(one.toInt)
          }
        }
    } finally src.close()
  } catch { case NonFatal(_) => Nil }

  private var failed = allowed.length < 2

  /** True while moving threads works. */
  def rotating: Boolean = !failed

  /** Pin the calling thread to the i-th allowed CPU, cyclically. */
  def pin(i: Int): Unit = if (!failed) set(allowed(i % allowed.length).toString)

  /** Let the calling thread run on every allowed CPU again. */
  def release(): Unit = set(allowed.mkString(","))

  private def set(cpus: String): Unit = if (!failed) {
    try {
      val tid = java.nio.file.Files.readSymbolicLink(java.nio.file.Paths.get("/proc/thread-self"))
        .getFileName.toString
      val p = new ProcessBuilder("taskset", "-pc", cpus, tid)
        .redirectErrorStream(true).redirectOutput(ProcessBuilder.Redirect.DISCARD).start()
      if (p.waitFor() != 0) failed = true
    } catch { case NonFatal(_) => failed = true }
  }
}

/** Times reference work, owned by the benchmark, next to the program's
  * work. No code of the program under test runs in a sweep, so its time
  * moves only with the host. The vCPUs of a shared cloud VM change speed by
  * a third within minutes as other tenants come and go, and a program's wall
  * times move with them; timings divided by the slowdown of sweeps made next
  * to them move much less. A sweep that takes `nominalMs` is a slowdown
  * of 1.
  */
final class HostSpeed(sweep: () => Unit, nominalMs: Double) {
  // Compile the sweep before anything is timed.
  (1 to 3).foreach(_ => sweep())

  /** Time of one sweep over its time on the nominal host. */
  def slowdown(): Double = {
    val t0 = System.nanoTime()
    sweep()
    (System.nanoTime() - t0) / 1e6 / nominalMs
  }
}

/** A host sweep for searches on the client thread: the squared L2 distance
  * of a fixed query to every 128-float row of a fixed array, computed with a
  * horizontal loop (one dependent sum per row, bound by add latency) and
  * with a vertical loop over 256-row blocks (independent sums, bound by
  * throughput and memory bandwidth). `floats`, a multiple of 2^15, sets the
  * working set, which should sit in the same level of the memory hierarchy
  * as the workload's.
  */
final class ArraySweep(floats: Int) extends (() => Unit) {
  private val Dim = 128
  private val Rows = 256
  require(floats > 0 && floats % (Dim * Rows) == 0, s"floats=$floats")
  private val data = {
    val rnd = new java.util.Random(1)
    Array.fill(floats)(rnd.nextFloat())
  }
  private val q = Array.tabulate(Dim)(j => j / Dim.toFloat)
  private val acc = new Array[Float](Rows)
  @volatile private var sink = 0f

  def apply(): Unit = {
    var total = 0f
    var base = 0
    while (base < data.length) {
      var s = 0f
      var j = 0
      while (j < Dim) { val t = data(base + j) - q(j); s += t * t; j += 1 }
      total += s
      base += Dim
    }
    base = 0
    while (base < data.length) {
      java.util.Arrays.fill(acc, 0f)
      var j = 0
      while (j < Dim) {
        val qj = q(j)
        val off = base + j * Rows
        var i = 0
        while (i < Rows) { val t = data(off + i) - qj; acc(i) += t * t; i += 1 }
        j += 1
      }
      total += acc(0)
      base += Dim * Rows
    }
    sink += total
  }
}
