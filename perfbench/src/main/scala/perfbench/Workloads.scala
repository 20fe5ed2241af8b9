package perfbench

import org.apache.spark.sql.{Dataset, Row, SparkSession}
import org.apache.spark.sql.functions.col

import repro.core._
import repro.data.VectorData
import repro.data.VectorData.DatasetSpec
import repro.ivf.{Ivf, IvfIndex}
import repro.prune.{AdSampling, Bond}
import repro.spark.{PdxBlockRow, PdxSpark}

/** Wall time of each public call a traced query makes, summed over the
  * traced queries, plus the search core's own counters.
  */
final class Spans {
  var queries = 0L
  var prepNs = 0L
  var findNs = 0L
  var scanNs = 0L
  var mergeNs = 0L
  var totalNs = 0L
  var vectorsVisited = 0L
  val profiler = new SearchProfiler

  def add(t0: Long, prepared: Long, found: Long, scanned: Long, merged: Long): Unit = {
    queries += 1
    prepNs += prepared - t0
    findNs += found - prepared
    scanNs += scanned - found
    mergeNs += merged - scanned
    totalNs += merged - t0
  }

  /** A query whose parts are not timed apart. */
  def addWhole(t0: Long, t1: Long): Unit = {
    queries += 1
    totalNs += t1 - t0
  }

  /** Per-query search counters; the searcher counts through the profiler. */
  def searchCounters(d: Int): Seq[(String, Double)] = Seq(
    "core.search.dims_scanned_per_query" -> profiler.dimValuesScanned.toDouble / queries,
    "core.search.bound_evals_per_query" -> profiler.boundEvals.toDouble / queries,
    "core.search.pruning_power" -> (1.0 - profiler.dimValuesScanned.toDouble / (vectorsVisited.toDouble * d)),
  )
}

/** One benchmark workload: its inputs, the index it builds through the
  * public API, and the query it answers.
  */
abstract class Workload(val name: String) {
  val k = 10

  def dataset: VectorData.Dataset

  /** Configuration stored in the run record. */
  def config: Seq[(String, Any)]

  /** True when every result must equal the brute-force top-k. */
  def exact: Boolean

  /** Build the index from the in-memory inputs, replacing the earlier one.
    * A traced build times each step and returns those times in seconds.
    */
  def setup(traced: Boolean): Seq[(String, Double)]

  /** One query through the public API, as a user of the system calls it. */
  def query(qi: Int): IndexedSeq[(Long, Float)]

  /** The same query composed from its public calls, each one timed. */
  def tracedQuery(qi: Int): IndexedSeq[(Long, Float)]

  val spans = new Spans

  /** Bytes held by every array of the built index. */
  def indexBytes: Long

  /** Reference work for [[HostSpeed]], made next to the queries, and its
    * time on the nominal host.
    */
  def hostSweep(): () => Unit
  def hostNominalMs: Double

  /** Layer measurements made apart from the query loop. */
  def probeLayers(): Seq[(String, Double)]

  def close(): Unit = ()

  def d: Int = dataset.spec.d
  def n: Int = dataset.spec.n
  protected def queries: IndexedSeq[Array[Float]] = dataset.queries
  protected lazy val ids: IndexedSeq[Long] = dataset.ids
}

object Workload {
  val names: Seq[String] = Seq("ivf-ads-420", "exact-bond-128", "spark-bond-128")

  def apply(name: String, seed: Long, smoke: Boolean): Workload = name match {
    case "ivf-ads-420" => new IvfAds(seed, smoke)
    case "exact-bond-128" => new ExactBond(seed, smoke)
    case "spark-bond-128" => new SparkBond(seed, smoke)
    case other => throw new IllegalArgumentException(
      s"unknown workload '$other'; expected one of ${names.mkString(", ")}")
  }

  def timed[T](f: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val out = f
    (out, (System.nanoTime() - t0) / 1e9)
  }

  def blockBytes(b: PdxBlock): Long =
    8L * b.ids.length + 4L * (b.data.length + b.means.length + b.suffixSqNorms.length)

  def naryBytes(b: NaryBucket): Long =
    8L * b.ids.length + 4L * (b.data.length + b.suffixSqNorms.length)
}

/** ADSampling over an IVF index of an MSong-like skewed collection. */
final class IvfAds(seed: Long, smoke: Boolean) extends Workload("ivf-ads-420") {
  val nlist: Int = if (smoke) 16 else IvfAds.Nlist
  val nprobe: Int = if (smoke) 4 else IvfAds.Nprobe
  val kmeansIters = 10
  val kmeansSeed: Long = seed * 31 + 7
  val rotationSeed: Long = seed * 31 + 17

  val dataset: VectorData.Dataset = VectorData.generate(DatasetSpec(
    "MSong", 420, if (smoke) 1000 else IvfAds.N, if (smoke) 20 else 200,
    skewed = true, seed = seed))

  val exact = false

  private var ads: AdSampling = _
  private var index: IvfIndex = _
  private val searcher = new PdxSearcher(k)
  private val tracedSearcher = new PdxSearcher(k, profiler = spans.profiler)

  def config: Seq[(String, Any)] = Seq(
    "dataset" -> "MSong-like skewed", "d" -> d, "n" -> n, "queries" -> queries.length, "k" -> k,
    "index" -> "IVF", "nlist" -> nlist, "nprobe" -> nprobe, "kmeans_iters" -> kmeansIters,
    "kmeans_seed" -> kmeansSeed, "pruner" -> "ADSampling", "rotation_seed" -> rotationSeed,
    "search" -> "PDXearch")

  def setup(traced: Boolean): Seq[(String, Double)] =
    if (!traced) {
      ads = new AdSampling(d, seed = rotationSeed)
      index = IvfIndex.build(dataset.vectors, ids, nlist, ads, kmeansIters, kmeansSeed)
      Seq.empty
    } else {
      // The steps of IvfIndex.build, in its order, timed one by one.
      val (a, rotationS) = Workload.timed(new AdSampling(d, seed = rotationSeed))
      val (part, kmeansS) = Workload.timed(Ivf.partition(dataset.vectors, nlist, kmeansIters, kmeansSeed))
      val (vecs, transformS) = Workload.timed(a.transformData(dataset.vectors))
      val (idx, materializeS) = Workload.timed(IvfIndex.materialize(
        part, vecs, ids, part.rawCentroids.map(a.transformVector), a.needsSuffixNorms))
      ads = a
      index = idx
      Seq("linalg.rotation_s" -> rotationS, "ivf.kmeans_s" -> kmeansS,
          "prune.transform_data_s" -> transformS, "ivf.materialize_s" -> materializeS)
    }

  def query(qi: Int): IndexedSeq[(Long, Float)] =
    index.searchPdx(queries(qi), k, nprobe, ads, searcher)

  def tracedQuery(qi: Int): IndexedSeq[(Long, Float)] = {
    // The calls IvfIndex.searchPdx makes, in its order.
    val t0 = System.nanoTime()
    val pq = ads.prepareQuery(queries(qi))
    val t1 = System.nanoTime()
    val probes = index.nearestBuckets(pq.query, nprobe)
    val t2 = System.nanoTime()
    val heap = new KnnHeap(k)
    tracedSearcher.searchPrepared(probes.iterator.map(c => index.blocks(index.bucketOf(c))), pq, heap)
    val t3 = System.nanoTime()
    val result = heap.sorted
    val t4 = System.nanoTime()
    spans.add(t0, t1, t2, t3, t4)
    spans.vectorsVisited += probes.iterator.map(c => index.blocks(index.bucketOf(c)).n.toLong).sum
    result
  }

  def indexBytes: Long =
    index.blocks.iterator.map(Workload.blockBytes).sum +
      index.naryBuckets.iterator.map(Workload.naryBytes).sum +
      4L * index.centroids.iterator.map(_.length.toLong).sum +
      Workload.blockBytes(index.centroidBlock) + 4L * index.centroidNary.length +
      4L * index.bucketOf.length +
      // The rotation keeps its double matrix and the float copy its
      // matrix-vector product reads.
      12L * ads.rotation.a.length

  // An L3-resident working set, like the index's.
  def hostSweep(): () => Unit = new ArraySweep(if (smoke) 1 << 20 else 4 << 20)
  val hostNominalMs = 6.0

  def probeLayers(): Seq[(String, Double)] = {
    val q = ads.prepareQuery(queries(0)).query
    KernelProbe.measure(index.blocks.toIndexedSeq, index.naryBuckets.toIndexedSeq.map(b => (b.data, b.n)), q)
  }
}

object IvfAds {
  val N = 5000
  // √N lists, a quarter of them probed.
  val Nlist = 71
  val Nprobe = 18
}

/** Exact PDX-BOND over large PDX blocks of a SIFT-like skewed collection
  * that does not fit in the last-level cache.
  */
final class ExactBond(seed: Long, smoke: Boolean) extends Workload("exact-bond-128") {
  val blockSize: Int = if (smoke) 1000 else ExactBond.BlockSize

  val dataset: VectorData.Dataset = VectorData.generate(DatasetSpec(
    "SIFT", 128, if (smoke) 5000 else ExactBond.N, if (smoke) 20 else 100,
    skewed = true, seed = seed))

  val exact = true

  private val bond = new Bond(d, Bond.DistanceToMeans)
  private var blocks: Vector[PdxBlock] = Vector.empty
  private val searcher = new PdxSearcher(k)
  private val tracedSearcher = new PdxSearcher(k, profiler = spans.profiler)

  def config: Seq[(String, Any)] = Seq(
    "dataset" -> "SIFT-like skewed", "d" -> d, "n" -> n, "queries" -> queries.length, "k" -> k,
    "index" -> "PDX blocks", "block_size" -> blockSize, "pruner" -> "PDX-BOND(dist-to-means)",
    "search" -> "PDXearch")

  def setup(traced: Boolean): Seq[(String, Double)] = {
    blocks = Vector.empty
    val (packed, packS) = Workload.timed(PdxLayout.pack(dataset.vectors, ids, blockSize))
    blocks = packed
    Seq("core.layout.pack_s" -> packS)
  }

  def query(qi: Int): IndexedSeq[(Long, Float)] =
    searcher.search(blocks, queries(qi), bond).sorted

  def tracedQuery(qi: Int): IndexedSeq[(Long, Float)] = {
    // The calls PdxSearcher.search makes, in its order.
    val t0 = System.nanoTime()
    val pq = bond.prepareQuery(queries(qi))
    val t1 = System.nanoTime()
    val heap = new KnnHeap(k)
    tracedSearcher.searchPrepared(blocks, pq, heap)
    val t2 = System.nanoTime()
    val result = heap.sorted
    val t3 = System.nanoTime()
    spans.add(t0, t1, t1, t2, t3)
    spans.vectorsVisited += n
    result
  }

  def indexBytes: Long = blocks.iterator.map(Workload.blockBytes).sum

  // Beyond the last-level cache, like the blocks.
  def hostSweep(): () => Unit = new ArraySweep(if (smoke) 1 << 20 else 32 << 20)
  val hostNominalMs = 55.0

  def probeLayers(): Seq[(String, Double)] =
    KernelProbe.measure(blocks, IndexedSeq((PdxLayout.packNary(dataset.vectors), n)), queries(0))
}

object ExactBond {
  val N = 400000
  val BlockSize = 10000
}

/** Distributed PDX-BOND on Spark over cached PDX blocks of a SIFT-like
  * collection, one job per query.
  */
final class SparkBond(seed: Long, smoke: Boolean) extends Workload("spark-bond-128") {
  val partitions: Int = math.min(4, Runtime.getRuntime.availableProcessors)
  val blockSize = 64

  val dataset: VectorData.Dataset = VectorData.generate(DatasetSpec(
    "SIFT", 128, if (smoke) 5000 else SparkBond.N, 10,
    skewed = true, seed = seed))

  val exact = true

  val spark: SparkSession = SparkSession.builder()
    .master(s"local[$partitions]")
    .appName("perfbench")
    .config("spark.ui.enabled", "false")
    .config("spark.sql.shuffle.partitions", partitions.toString)
    .getOrCreate()
  spark.sparkContext.setLogLevel("ERROR")

  private var blocks: Dataset[PdxBlockRow] = _

  def config: Seq[(String, Any)] = Seq(
    "dataset" -> "SIFT-like skewed", "d" -> d, "n" -> n, "queries" -> queries.length, "k" -> k,
    "index" -> "cached Dataset[PdxBlockRow]", "block_size" -> blockSize,
    "partitions" -> partitions, "pruner" -> "PDX-BOND(dist-to-means)", "search" -> "PdxSpark.knnBond",
    "spark_master" -> spark.sparkContext.master,
    "spark_sql_shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
    "spark_version" -> spark.version)

  def setup(traced: Boolean): Seq[(String, Double)] = {
    if (blocks != null) blocks.unpersist(blocking = true)
    val (_, packS) = Workload.timed {
      val df = PdxSpark.toVectorDF(spark, dataset.vectors, partitions)
      blocks = PdxSpark.pack(df, blockSize).cache()
      blocks.count()
    }
    Seq("spark.pack_cache_s" -> packS)
  }

  def query(qi: Int): IndexedSeq[(Long, Float)] =
    PdxSpark.knnBond(blocks, queries(qi), k).collect().toIndexedSeq
      .map(r => (r.getLong(0), r.getDouble(1).toFloat))

  def tracedQuery(qi: Int): IndexedSeq[(Long, Float)] = {
    // One Spark job: its parts are measured apart, in probeLayers.
    val t0 = System.nanoTime()
    val result = query(qi)
    spans.addWhole(t0, System.nanoTime())
    result
  }

  def indexBytes: Long = spark.sparkContext.getRDDStorageInfo.iterator
    .map(info => info.memSize + info.diskSize).sum

  // Two jobs with a query's plan shape over a Dataset the benchmark owns,
  // one row per partition, doing nothing in each. A query's time is mostly
  // such scheduling and hand-offs between threads, which an array sweep on
  // the client thread does not follow. The Dataset is not cached, so that
  // `indexBytes` counts the index alone.
  def hostSweep(): () => Unit = {
    val idle = spark.range(0, partitions, 1, partitions)
    () => (1 to 2).foreach(_ => SparkJobs.floor(idle, k))
  }
  val hostNominalMs = 150.0

  def probeLayers(): Seq[(String, Double)] = {
    // Floor and decode jobs alternate, so drift reaches both alike; decode
    // is the median of the paired differences, and can read slightly below
    // 0 when decoding costs less than the jobs' noise.
    val reps = if (smoke) 3 else 15
    SparkJobs.floor(blocks, k)
    SparkJobs.decode(blocks, k)
    val pairs = (1 to reps).map { _ =>
      val floor = Workload.timed(SparkJobs.floor(blocks, k))._2 * 1e3
      (floor, Workload.timed(SparkJobs.decode(blocks, k))._2 * 1e3 - floor)
    }
    val floorMs = Stats.median(pairs.map(_._1))
    val decodeMs = Stats.median(pairs.map(_._2))

    // The same query on the same blocks, collected to the driver and
    // searched by one thread, as one partition's task would search them.
    val local = blocks.collect().map(_.toBlock).toIndexedSeq
    val bond = new Bond(d, Bond.DistanceToMeans)
    val plain = new PdxSearcher(k)
    queries.foreach(q => plain.search(local, q, bond))
    val scanMs = Stats.median(queries.map(q => Workload.timed(plain.search(local, q, bond))._2 * 1e3))
    val counted = new Spans
    val counting = new PdxSearcher(k, profiler = counted.profiler)
    queries.foreach { q =>
      counting.search(local, q, bond)
      counted.queries += 1
      counted.vectorsVisited += n
    }
    // The local PDX layout of the same vectors, packed as exact-bond-128's
    // set-up packs them: BENCHMARK.json does not list that workload.
    def pack() = PdxLayout.pack(dataset.vectors, ids, ExactBond.BlockSize)
    pack()
    val packS = Stats.median((1 to 3).map(_ => Workload.timed(pack())._2))
    Seq("spark.job_floor_ms" -> floorMs, "spark.decode_ms" -> decodeMs,
        "spark.local_scan_ms" -> scanMs, "spark.cached_bytes" -> indexBytes.toDouble,
        "core.layout.pack_s" -> packS) ++
      counted.searchCounters(d) ++
      KernelProbe.measure(local, IndexedSeq((PdxLayout.packNary(dataset.vectors), n)), queries(0))
  }

  override def close(): Unit = spark.stop()
}

object SparkBond {
  val N = 50000
}

/** Spark jobs with the shape of `PdxSpark.knnBond` (per-partition work,
  * then a global `orderBy(dist, id).limit(k)`), doing less inside each
  * partition: nothing at all, or only decoding rows into blocks.
  */
object SparkJobs {
  def floor[T](rows: Dataset[T], k: Int): Array[Row] = {
    val spark = rows.sparkSession
    import spark.implicits._
    rows.mapPartitions(_ => Iterator.empty[(Long, Double)])
      .toDF("id", "dist").orderBy(col("dist"), col("id")).limit(k).collect()
  }

  def decode(blocks: Dataset[PdxBlockRow], k: Int): Array[Row] = {
    val spark = blocks.sparkSession
    import spark.implicits._
    blocks.mapPartitions { it =>
      var vectors = 0L
      it.foreach(row => vectors += row.toBlock.n)
      Iterator.single((vectors, 0.0))
    }.toDF("id", "dist").orderBy(col("dist"), col("id")).limit(k).collect()
  }
}

/** Distance kernels timed on a workload's own vectors: the PDX kernel in
  * storage order and in PDX-BOND's order over the PDX blocks, and the
  * horizontal kernel over the same vectors stored N-ary.
  */
object KernelProbe {
  @volatile private var sink = 0f

  def measure(blocks: IndexedSeq[PdxBlock], nary: IndexedSeq[(Array[Float], Int)],
              q: Array[Float]): Seq[(String, Double)] = {
    val d = q.length
    val values = blocks.iterator.map(_.n.toLong * d).sum.toDouble
    val acc = new Array[Float](blocks.iterator.map(_.n).max)
    val order = new Bond(d, Bond.DistanceToMeans).prepareQuery(q).order(blocks.head.means)
    def pdx(ordered: Boolean): Unit = blocks.foreach { b =>
      java.util.Arrays.fill(acc, 0, b.n, 0f)
      if (ordered) Kernels.l2PdxOrdered(b.data, b.n, q, order, 0, d, acc)
      else Kernels.l2Pdx(b.data, b.n, q, 0, d, acc)
      sink += acc(0)
    }
    def horizontal(): Unit = nary.foreach { case (data, count) =>
      var i = 0
      var s = 0f
      while (i < count) { s += Kernels.l2Unrolled(data, i * d, q, d); i += 1 }
      sink += s
    }
    Seq(
      "core.kernels.l2_pdx_ns_per_value" -> nsPer(values)(pdx(ordered = false)),
      "core.kernels.l2_pdx_ordered_ns_per_value" -> nsPer(values)(pdx(ordered = true)),
      "core.kernels.l2_nary_ns_per_value" -> nsPer(values)(horizontal()),
    )
  }

  /** Median ns per value over five batches of passes, each batch sized to
    * take at least 50 ms; the sizing batches and one more run untimed.
    */
  private def nsPer(values: Double)(pass: => Unit): Double = {
    var batch = 1
    while (Workload.timed((1 to batch).foreach(_ => pass))._2 < 0.05 && batch < (1 << 20)) batch *= 2
    Workload.timed((1 to batch).foreach(_ => pass))
    val times = (1 to 5).map(_ => Workload.timed((1 to batch).foreach(_ => pass))._2)
    Stats.median(times) * 1e9 / (batch * values)
  }
}
