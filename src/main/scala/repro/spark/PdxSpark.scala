package repro.spark

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.core._
import repro.prune.Bond

/** One PDX block as a Spark row — the per-partition columnar block format
  * (repro-hint layering: blocks ↔ Parquet rowgroups, built and scanned
  * inside executors). `data` is dimension-major with stride `n`;
  * `suffix` is empty unless the block carries BSA metadata.
  */
final case class PdxBlockRow(
    ids: Array[Long],
    n: Int,
    d: Int,
    data: Array[Float],
    means: Array[Float],
    suffix: Array[Float]
) {
  def toBlock: PdxBlock = PdxBlock(ids, n, d, data, means, suffix)
}

object PdxBlockRow {
  def from(b: PdxBlock): PdxBlockRow =
    PdxBlockRow(b.ids, b.n, b.d, b.data, b.means, b.suffixSqNorms)
}

/** Spark-side PDX: pack a vector DataFrame into per-partition PDX blocks
  * and run dimension-by-dimension KNN inside executors.
  *
  * Layering (DESIGN.md §3): the layout is a `Dataset[PdxBlockRow]` built by
  * `mapPartitions` (i); the search is a per-partition operator that runs the
  * PDXearch core and emits per-partition top-k merged by a global
  * `orderBy(dist, id).limit(k)` (ii); and the same scan is exposed to Spark
  * SQL as the `pdx_block_knn` UDF (iii). Exact variants stay exact under
  * this parallelization: each partition runs its own START phase, and the
  * global merge of per-partition exact top-k is the exact top-k.
  */
object PdxSpark {

  /** (id LONG, vec ARRAY<FLOAT>) DataFrame from local vectors. */
  def toVectorDF(spark: SparkSession, vecs: Seq[Array[Float]],
                 numPartitions: Int = 0): DataFrame = {
    import spark.implicits._
    val ds = vecs.zipWithIndex.map { case (v, i) => (i.toLong, v) }.toDF("id", "vec")
    if (numPartitions > 0) ds.repartition(numPartitions) else ds
  }

  /** Pack a vector DataFrame into PDX blocks, one stream of blocks per partition. */
  def pack(df: DataFrame, blockSize: Int = PdxLayout.DefaultBlockSize,
           withSuffixNorms: Boolean = false): Dataset[PdxBlockRow] = {
    val spark = df.sparkSession
    import spark.implicits._
    df.select(col("id").cast("long"), col("vec"))
      .as[(Long, Array[Float])]
      .mapPartitions { it =>
        it.grouped(blockSize).map { group =>
          val vecs = group.map(_._2).toIndexedSeq
          val ids = group.map(_._1).toIndexedSeq
          val d = Option(vecs.head).fold(0)(_.length) // packOne reports a null vector
          PdxBlockRow.from(PdxLayout.packOne(vecs, ids, d, withSuffixNorms))
        }
      }
  }

  /** Exact distributed KNN: per-partition PDX linear scan, global top-k.
    * Returns (id LONG, dist DOUBLE) sorted ascending by (dist, id).
    */
  def knnExact(blocks: Dataset[PdxBlockRow], query: Array[Float], k: Int): DataFrame =
    knn(blocks, query, k, Pruner.NeverPrune(query.length))

  /** Distributed PDX-BOND KNN: per-partition PDXearch with the exact
    * partial-distance pruner and query-aware dimension order; global top-k.
    * Exact — equals `knnExact` up to float tie noise.
    */
  def knnBond(blocks: Dataset[PdxBlockRow], query: Array[Float], k: Int,
              criteria: Bond.Criteria = Bond.DistanceToMeans): DataFrame =
    knn(blocks, query, k, new Bond(query.length, criteria))

  /** Per-partition PDXearch with `pruner`, merged by (dist, id). The query
    * is checked here, before any job runs; its dimensionality against the
    * blocks' is checked by the searcher in the tasks, where `d` is known.
    */
  private def knn(blocks: Dataset[PdxBlockRow], query: Array[Float], k: Int,
                  pruner: Pruner): DataFrame = {
    require(k > 0, s"k must be positive, got $k")
    PreparedQuery.requireFinite(query)
    val spark = blocks.sparkSession
    import spark.implicits._
    blocks
      .mapPartitions { it =>
        val heap = new PdxSearcher(k).search(it.map(_.toBlock), query, pruner)
        heap.sorted.iterator.map { case (id, dist) => (id, dist.toDouble) }
      }
      .toDF("id", "dist")
      .orderBy(col("dist"), col("id"))
      .limit(k)
  }

  /** Count of vectors within squared L2 radius `r2` of the query — a
    * second query shape for the DuckDB oracle (range count). The query and
    * `r2` are checked before any job runs, the query's dimensionality in
    * the tasks, as in [[knn]].
    */
  def rangeCount(blocks: Dataset[PdxBlockRow], query: Array[Float], r2: Double): DataFrame = {
    PreparedQuery.requireFinite(query)
    require(!r2.isNaN, "radius r2 is NaN")
    val spark = blocks.sparkSession
    import spark.implicits._
    val perPart = blocks.mapPartitions { it =>
      var count = 0L
      var acc = Array.emptyFloatArray
      it.foreach { row =>
        val b = row.toBlock
        PreparedQuery.requireDims(query, b.d)
        if (acc.length < b.n) acc = new Array[Float](b.n)
        java.util.Arrays.fill(acc, 0, b.n, 0f)
        Kernels.l2Pdx(b.data, b.n, query, 0, b.d, acc)
        var i = 0
        while (i < b.n) { if (acc(i) < r2) count += 1; i += 1 }
      }
      Iterator.single(count)
    }
    perPart.toDF("c").agg(sum(col("c")).as("c"))
  }

  /** Register the `pdx_block_knn(data, n, d, ids, means, query, k)` UDF:
    * answers one PDX block row with its local top-k as
    * `array<struct<id, dist>>` — the SQL-facing path. It runs PDXearch with
    * [[Pruner.NeverPrune]] (the PDX linear scan) on the row's block, so it
    * shares the searcher's checks of the query and the block's shape. A
    * NULL array argument is rejected by name.
    */
  def registerUdf(spark: SparkSession): Unit = {
    spark.udf.register(
      "pdx_block_knn",
      (data: Seq[Float], n: Int, d: Int, ids: Seq[Long], means: Seq[Float],
       query: Seq[Float], k: Int) => {
        for ((arg, name) <- Seq(data -> "data", ids -> "ids", means -> "means", query -> "query"))
          require(arg != null, s"pdx_block_knn: argument $name is NULL")
        val block = PdxBlock(ids.toArray, n, d, data.toArray, means.toArray, Array.emptyFloatArray)
        new PdxSearcher(k).search(Iterator.single(block), query.toArray, Pruner.NeverPrune(d))
          .sorted.map { case (id, dist) => (id, dist.toDouble) }
      }
    )
  }

  /** Long-format (id, dim, val) view of a vector DataFrame — the shape both
    * Spark and DuckDB can aggregate for oracle checks.
    */
  def explodeVectors(df: DataFrame): DataFrame =
    df.select(col("id"), posexplode(col("vec")).as(Seq("dim", "val")))
}
