package perfbench

import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

/** The benchmark: one workload, one seed, one closed loop with a single
  * client. Prints human-readable lines, a `record` line describing the run,
  * and last the JSON result line.
  *
  *   --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
  *
  * With `--trace 0` the loop calls the public query API and the result holds
  * the end-to-end metrics. With `--trace 1` the loop alternates that call
  * with a traced query, which makes each public call of the query itself
  * and times it; the result holds the per-layer metrics.
  */
object Main {

  /** Set-ups per run; `setup_s` is their median. */
  val SetupReps = 5

  /** Shortest untimed warm-up before the measured loop; a smoke run warms
    * up for a quarter of it.
    */
  val WarmupNs = 2000000000L

  /** Lowest mean recall@10 an approximate workload may return and still
    * count as correct. Far below what ADSampling reaches: it catches a
    * broken search, not a small recall loss, which `recall_at_10` shows.
    */
  val RecallFloor = 0.5

  /** The queries one way of running made in a closed loop, in whole passes
    * over the `nq` distinct queries: pass p holds latencies p·nq until
    * (p+1)·nq, took `passNs(p)` and ran at host slowdown `slowdowns(p)`.
    * The `adjusted` figures are medians over passes of a pass's figure
    * divided by its slowdown (see [[HostSpeed]]): a pass slowed by other
    * tenants shifts them no more than any other pass.
    */
  final case class Loop(nq: Int, latenciesNs: Array[Long], passNs: Array[Long], slowdowns: Array[Double]) {
    def passes: Int = passNs.length
    def count: Int = latenciesNs.length
    def elapsedNs: Long = passNs.sum
    def qps: Double = count * 1e9 / elapsedNs
    def sortedMs: Array[Double] = latenciesNs.map(_ / 1e6).sorted

    def adjustedQps: Double =
      Stats.median((0 until passes).map(p => nq * 1e9 / passNs(p) * slowdowns(p)))

    def adjustedPercentileMs(pct: Double): Double = Stats.median((0 until passes).map { p =>
      val ms = latenciesNs.slice(p * nq, (p + 1) * nq).map(_ / 1e6).sorted
      Stats.percentile(ms, pct) / slowdowns(p)
    })
  }

  /** Collects every result, counts failures against attempts. */
  final class Checker(truth: Truth, exact: Boolean) {
    var attempted = 0L
    var failed = 0L
    val failures = ArrayBuffer.empty[String]

    def apply(qi: Int, result: IndexedSeq[(Long, Float)]): Unit = {
      attempted += 1
      truth.check(qi, result, exact).foreach { why =>
        failed += 1
        if (failures.length < 20) failures += s"query $qi: $why"
      }
    }
  }

  def main(args: Array[String]): Unit = {
    val opts = parseArgs(args)
    val name = opts.getOrElse("workload", usage("--workload is required"))
    val seed = opts.get("seed").map(_.toLong).getOrElse(1L)
    val seconds = opts.get("seconds").map(_.toDouble).getOrElse(10.0)
    val trace = opts.get("trace").exists(_ != "0")
    val smoke = opts.contains("smoke")
    val threads = Runtime.getRuntime.availableProcessors

    val (w, genS) = Workload.timed(Workload(name, seed, smoke))
    try {
      val host = new HostSpeed(w.hostSweep(), w.hostNominalMs)
      say(f"inputs: n=${w.n} d=${w.d} queries=${w.dataset.queries.length} generated in $genS%.2f s")
      val (truth, truthS) = Workload.timed(new Truth(w.dataset.vectors, w.dataset.queries, w.k, threads))
      say(f"brute-force top-${w.k}: $threads threads, $truthS%.2f s")
      val record = Json.obj(
        "workload" -> name, "seed" -> seed, "seconds" -> seconds, "trace" -> trace, "smoke" -> smoke,
        "config" -> w.config, "jvm" -> jvmRecord)
      println("record " + Json.render(record))

      // Each set-up is divided by the mean host slowdown just before and
      // just after it, on the same CPU.
      val setups = (1 to SetupReps).map { rep =>
        System.gc()
        Cpus.pin(rep)
        val before = host.slowdown()
        val (parts, s) = Workload.timed(w.setup(trace))
        (parts, s, s / ((before + host.slowdown()) / 2))
      }
      Cpus.release()
      val setupS = Stats.median(setups.map(_._3))
      say(f"setup: ${setups.map(s => f"${s._2}%.3f").mkString(" ")} s wall, " +
          f"${setups.map(s => f"${s._3}%.3f").mkString(" ")} s adjusted, median $setupS%.3f s")

      val check = new Checker(truth, w.exact)
      val nq = w.dataset.queries.length
      // Untimed warm-up: passes over the queries for at least WarmupNs, so
      // that the JIT has compiled the query path. The first pass gives
      // recall over the distinct queries.
      var recallSum = 0.0
      val warmupEnd = System.nanoTime() + (if (smoke) WarmupNs / 4 else WarmupNs)
      var warmupPass = 0
      while (warmupPass == 0 || System.nanoTime() < warmupEnd) {
        (0 until nq).foreach { qi =>
          val r = attempt(w.query(qi))
          check(qi, r)
          if (warmupPass == 0 && r != null) recallSum += truth.recall(qi, r)
        }
        host.slowdown()
        warmupPass += 1
      }
      val recall = recallSum / nq

      val metrics: Seq[(String, Double, String)] =
        if (!trace) {
          val Seq(loop) = closedLoop(seconds, nq, check, host, Seq(w.query))
          val ms = loop.sortedMs
          say(s"loop: ${loop.count} queries in ${loop.passes} passes, ${loop.elapsedNs / 1e9} s")
          sayHost(loop)
          say(f"wall clock, whole run: qps ${loop.qps}%.2f")
          sayPercentile(ms, 0.5)
          sayPercentile(ms, 0.9)
          sayPercentile(ms, 0.99)
          say(f"host-adjusted, median over passes: qps ${loop.adjustedQps}%.2f, " +
              f"p50 ${loop.adjustedPercentileMs(0.5)}%.4f ms, p90 ${loop.adjustedPercentileMs(0.9)}%.4f ms " +
              f"(${Stats.beyond(nq, 0.9)} of $nq beyond p90 in a pass)")
          say(f"recall@${w.k}: $recall%.4f over $nq queries")
          Seq(
            ("qps", loop.adjustedQps, "1/s"),
            ("latency_p50_ms", loop.adjustedPercentileMs(0.5), "ms"),
            ("latency_p90_ms", loop.adjustedPercentileMs(0.9), "ms"),
            ("recall_at_10", recall, "ratio"),
            ("setup_s", setupS, "s"),
            ("index_bytes_per_vector_byte", w.indexBytes.toDouble / (w.n.toLong * w.d * 4), "ratio"),
          )
        } else {
          val Seq(plain, traced) = closedLoop(seconds, nq, check, host, Seq(w.query, w.tracedQuery))
          val sp = w.spans
          def perQueryUs(ns: Long): Double = ns / 1e3 / sp.queries
          val setupParts = setups.flatMap(_._1).groupBy(_._1).map { case (key, xs) =>
            key -> Stats.median(xs.map(_._2))
          }
          val measured: Map[String, Double] =
            setupParts ++
              (if (sp.vectorsVisited > 0) sp.searchCounters(w.d) else Nil) ++
              Seq(
                "prune.prepare_query_us" -> perQueryUs(sp.prepNs),
                "ivf.find_buckets_us" -> perQueryUs(sp.findNs),
                "core.search.scan_us" -> perQueryUs(sp.scanNs),
                "core.search.merge_us" -> perQueryUs(sp.mergeNs),
                "trace.query_us" -> perQueryUs(sp.totalNs),
                "trace.accounted_frac" ->
                  (sp.prepNs + sp.findNs + sp.scanNs + sp.mergeNs).toDouble /
                    traced.latenciesNs.sum,
                "trace.overhead_frac" -> (1.0 - traced.adjustedQps / plain.adjustedQps),
              ) ++ w.probeLayers()
          val withRatio = w match {
            case s: SparkBond =>
              measured + ("spark.overhead_ratio" ->
                Stats.percentile(plain.sortedMs, 0.5) / (measured("spark.local_scan_ms") / s.partitions))
            case _ => measured
          }
          say(s"loops: ${plain.count} plain and ${traced.count} traced queries")
          LayerMetrics.map { case (key, unit) => (key, withRatio.getOrElse(key, 0.0), unit) }
        }

      say(s"client moved across CPUs ${Cpus.allowed.mkString(",")}: ${Cpus.rotating}")
      say(f"attempted ${check.attempted}, failed ${check.failed}, " +
          f"error_rate ${check.failed.toDouble / check.attempted}%.6f")
      check.failures.foreach(f => say("FAILED " + f))
      metrics.foreach { case (key, v, unit) => say(s"metric $key = $v $unit") }

      val correct = check.failed == 0 && (w.exact || recall >= RecallFloor)
      println(Json.render(Json.obj(
        "correct" -> correct,
        "attempted" -> check.attempted,
        "failed" -> check.failed,
        "metrics" -> metrics.map { case (key, v, unit) => key -> Json.obj("value" -> v, "unit" -> unit) })))
    } finally {
      w.close()
    }
  }

  /** Every per-layer metric, in the order the result prints them. A metric
    * of a layer the workload does not use reads 0.
    */
  val LayerMetrics: Seq[(String, String)] = Seq(
    "prune.prepare_query_us" -> "us",
    "linalg.rotation_s" -> "s",
    "prune.transform_data_s" -> "s",
    "ivf.find_buckets_us" -> "us",
    "ivf.kmeans_s" -> "s",
    "ivf.materialize_s" -> "s",
    "core.search.scan_us" -> "us",
    "core.search.merge_us" -> "us",
    "core.search.dims_scanned_per_query" -> "count",
    "core.search.bound_evals_per_query" -> "count",
    "core.search.pruning_power" -> "ratio",
    "core.kernels.l2_pdx_ns_per_value" -> "ns",
    "core.kernels.l2_pdx_ordered_ns_per_value" -> "ns",
    "core.kernels.l2_nary_ns_per_value" -> "ns",
    "core.layout.pack_s" -> "s",
    "spark.pack_cache_s" -> "s",
    "spark.job_floor_ms" -> "ms",
    "spark.decode_ms" -> "ms",
    "spark.local_scan_ms" -> "ms",
    "spark.overhead_ratio" -> "ratio",
    "spark.cached_bytes" -> "bytes",
    "trace.query_us" -> "us",
    "trace.accounted_frac" -> "ratio",
    "trace.overhead_frac" -> "ratio",
  )

  private def attempt(f: => IndexedSeq[(Long, Float)]): IndexedSeq[(Long, Float)] =
    try f catch { case NonFatal(e) => say(s"query threw: $e"); null }

  /** Shortest stay of the client on one CPU before it moves to the next. */
  val CpuDwellNs = 250000000L

  /** One client: each query is sent when the previous one returned, cycling
    * through the distinct queries in whole passes, until `seconds` have
    * passed. With several ways to run a query, the passes alternate between
    * them, so drift in the JVM or the host reaches each alike. After each
    * pass, untimed, one host sweep measures the slowdown its queries ran
    * at. Between passes the client moves to the next CPU (see [[Cpus]]).
    * Results are checked after the clock has stopped.
    */
  def closedLoop(seconds: Double, nq: Int, check: Checker, host: HostSpeed,
                 runs: Seq[Int => IndexedSeq[(Long, Float)]]): Seq[Loop] = {
    val latencies = runs.map(_ => ArrayBuffer.empty[Long])
    val passNs = runs.map(_ => ArrayBuffer.empty[Long])
    val slowdowns = runs.map(_ => ArrayBuffer.empty[Double])
    val results = ArrayBuffer.empty[(Int, IndexedSeq[(Long, Float)])]
    val end = System.nanoTime() + (seconds * 1e9).toLong
    var now = System.nanoTime()
    var pass = 0
    var cpu = 0
    var moved = 0L
    // Every way of running gets at least one pass, however short the run.
    while (now < end || pass < runs.length) {
      val m = pass % runs.length
      if (now - moved >= CpuDwellNs) {
        Cpus.pin(cpu)
        cpu += 1
        now = System.nanoTime()
        moved = now
      }
      val passStart = now
      var qi = 0
      while (qi < nq) {
        val t0 = System.nanoTime()
        val r = attempt(runs(m)(qi))
        now = System.nanoTime()
        latencies(m) += now - t0
        results += ((qi, r))
        qi += 1
      }
      passNs(m) += now - passStart
      slowdowns(m) += host.slowdown()
      now = System.nanoTime()
      pass += 1
    }
    Cpus.release()
    results.foreach { case (i, r) => check(i, r) }
    runs.indices.map(m => Loop(nq, latencies(m).toArray, passNs(m).toArray, slowdowns(m).toArray))
  }

  private def sayPercentile(sortedMs: Array[Double], p: Double): Unit = {
    val beyond = Stats.beyond(sortedMs.length, p)
    val note = if (beyond < 10) " (fewer than 10 samples beyond: not reported)" else ""
    say(f"latency p${(p * 100).round}: ${Stats.percentile(sortedMs, p)}%.3f ms, " +
        f"${sortedMs.length} samples, $beyond beyond$note")
  }

  private def sayHost(loop: Loop): Unit = {
    val s = loop.slowdowns.sorted
    say(f"host slowdown over ${s.length} passes: min ${s.head}%.3f, median ${Stats.median(s.toSeq)}%.3f, " +
        f"max ${s.last}%.3f")
  }

  private def jvmRecord: Seq[(String, Any)] = {
    val rt = java.lang.management.ManagementFactory.getRuntimeMXBean
    Json.obj(
      "version" -> System.getProperty("java.version"),
      "vm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.vm.version")}",
      "max_heap_bytes" -> Runtime.getRuntime.maxMemory,
      "available_processors" -> Runtime.getRuntime.availableProcessors,
      "client_cpus" -> Cpus.allowed,
      "flags" -> rt.getInputArguments.toArray.toSeq.map(_.toString))
  }

  private def say(s: String): Unit = println(s)

  private def usage(msg: String): Nothing = {
    System.err.println(s"$msg\nusage: --workload ${Workload.names.mkString("|")} " +
      "--seed N --seconds S --trace 0|1 [--smoke]")
    sys.exit(2)
  }

  private def parseArgs(args: Array[String]): Map[String, String] = {
    val out = Map.newBuilder[String, String]
    var i = 0
    while (i < args.length) {
      val key = args(i).stripPrefix("--")
      if (key == "smoke") { out += key -> "1"; i += 1 }
      else if (i + 1 < args.length) { out += key -> args(i + 1); i += 2 }
      else usage(s"missing value for ${args(i)}")
    }
    out.result()
  }
}
