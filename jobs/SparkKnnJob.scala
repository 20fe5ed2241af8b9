package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.data.VectorData
import repro.prune.Bond
import repro.spark.PdxSpark

/** Distributed PDX similarity search demo for spark-submit:
  * generates a clustered collection with `VectorData.generate`, packs it
  * into per-partition PDX blocks, and answers one of its queries with
  * PDXearch + PDX-BOND inside the executors (global top-k merged by Spark).
  *
  * Args: [nVectors] [dims] [k]  (defaults 100000 64 10)
  */
object SparkKnnJob {
  def main(args: Array[String]): Unit = {
    val n = if (args.length > 0) args(0).toInt else 100000
    val d = if (args.length > 1) args(1).toInt else 64
    val k = if (args.length > 2) args(2).toInt else 10
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("pdx-knn")
      .getOrCreate()
    try {
      val ds = VectorData.generate(
        VectorData.DatasetSpec("SparkKnn", d, n, nQueries = 1, skewed = false, seed = 42))
      val df = PdxSpark.toVectorDF(spark, ds.vectors, spark.sparkContext.defaultParallelism)
      val blocks = PdxSpark.pack(df, blockSize = 64).cache()
      val t0 = System.nanoTime()
      val res = PdxSpark.knnBond(blocks, ds.queries.head, k, Bond.DistanceToMeans).collect()
      val ms = (System.nanoTime() - t0) / 1e6
      println(f"PDX-BOND distributed $k-NN over $n vectors (d=$d) in $ms%.1f ms:")
      res.foreach(r => println(f"  id=${r.getLong(0)}%8d  dist=${r.getDouble(1)}%.4f"))
    } finally spark.stop()
  }
}
