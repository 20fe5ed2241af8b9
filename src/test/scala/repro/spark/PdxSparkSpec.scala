package repro.spark

import repro.{SparkSpec, TestUtil}
import repro.core.PdxLayout
import repro.data.VectorData
import repro.prune.Bond

class PdxSparkSpec extends SparkSpec {

  private lazy val ds = VectorData.generate(
    VectorData.DatasetSpec("spark", 24, 800, 6, skewed = false, clusters = 8, seed = 500))

  /** A query as a Spark SQL float array literal (string casts carry NaN). */
  private def sqlArray(q: Array[Float]): String =
    q.map(x => s"CAST('$x' AS FLOAT)").mkString("array(", ", ", ")")

  test("pack produces blocks covering every vector exactly once") {
    val df = PdxSpark.toVectorDF(spark, ds.vectors, numPartitions = 4)
    val blocks = PdxSpark.pack(df, blockSize = 64).collect()
    assert(blocks.map(_.n).sum == 800)
    assert(blocks.forall(_.n <= 64))
    assert(blocks.forall(_.d == 24))
    val ids = blocks.flatMap(_.ids).sorted
    assert(ids.toSeq == (0L until 800L))
  }

  test("packed blocks reconstruct the original vectors") {
    val df = PdxSpark.toVectorDF(spark, ds.vectors, numPartitions = 3)
    val blocks = PdxSpark.pack(df, blockSize = 32).collect()
    blocks.foreach { row =>
      val b = row.toBlock
      PdxLayout.unpack(b).foreach { case (id, v) =>
        assert(v.toSeq == ds.vectors(id.toInt).toSeq, s"vector $id corrupted")
      }
    }
  }

  test("pack respects suffix-norm request") {
    val df = PdxSpark.toVectorDF(spark, ds.vectors.take(100), numPartitions = 2)
    val plain = PdxSpark.pack(df, 64).collect()
    assert(plain.forall(_.suffix.isEmpty))
    val withS = PdxSpark.pack(df, 64, withSuffixNorms = true).collect()
    assert(withS.forall(r => r.suffix.length == r.n * (r.d + 1)))
  }

  for (parts <- Seq(1, 4)) {
    test(s"distributed knnExact equals local brute force ($parts partitions)") {
      val df = PdxSpark.toVectorDF(spark, ds.vectors, numPartitions = parts)
      val blocks = PdxSpark.pack(df, 64).cache()
      ds.queries.foreach { q =>
        val res = PdxSpark.knnExact(blocks, q, 10).collect()
          .map(r => (r.getLong(0), r.getDouble(1).toFloat)).toSeq
        TestUtil.assertExactKnn(res, ds.vectors, q, 10)
      }
      blocks.unpersist()
    }
  }

  test("distributed knnBond equals knnExact (exact pruning under parallelism)") {
    val df = PdxSpark.toVectorDF(spark, ds.vectors, numPartitions = 4)
    val blocks = PdxSpark.pack(df, 64).cache()
    ds.queries.foreach { q =>
      val exact = PdxSpark.knnExact(blocks, q, 10).collect().map(_.getLong(0)).toSet
      val bond = PdxSpark.knnBond(blocks, q, 10, Bond.DistanceToMeans).collect().map(_.getLong(0)).toSet
      assert(bond == exact)
    }
    blocks.unpersist()
  }

  test("rangeCount matches a local count") {
    val df = PdxSpark.toVectorDF(spark, ds.vectors, numPartitions = 4)
    val blocks = PdxSpark.pack(df, 64)
    val q = ds.queries.head
    val dists = ds.vectors.map(v => repro.core.Kernels.l2Ref(v, q))
    val r2 = dists.sorted.apply(100) + 1e-6 // radius capturing ~101 vectors
    val got = PdxSpark.rangeCount(blocks, q, r2).collect().head.getLong(0)
    val expect = dists.count(_ < r2)
    assert(got == expect, s"got $got expect $expect")
  }

  test("pdx_block_knn UDF returns the block-local top-k through Spark SQL") {
    PdxSpark.registerUdf(spark)
    val vecs = ds.vectors.take(200)
    val df = PdxSpark.toVectorDF(spark, vecs, numPartitions = 2)
    PdxSpark.pack(df, 64).createOrReplaceTempView("pdx_blocks")
    val q = ds.queries.head
    val res = spark.sql(
      s"""SELECT r.col._1 AS id FROM (
         |  SELECT explode(pdx_block_knn(data, n, d, ids, means, ${sqlArray(q)}, 10)) AS col
         |  FROM pdx_blocks
         |) r
         |ORDER BY r.col._2, r.col._1 LIMIT 10""".stripMargin
    ).collect().map(_.getLong(0)).toSet
    val gt = VectorData.groundTruth(vecs.toIndexedSeq, IndexedSeq(q), 10).head.toSet
    assert(res == gt)
  }

  test("knnExact works with VectorData.generate input") {
    val local = VectorData.generate(
      VectorData.DatasetSpec("gen", 16, 500, 1, skewed = false, clusters = 8, seed = 77)).vectors
    val blocks = PdxSpark.pack(PdxSpark.toVectorDF(spark, local, numPartitions = 3), 64).cache()
    val q = local.head // self-query: nearest must include id 0 at distance 0
    val res = PdxSpark.knnExact(blocks, q, 5).collect()
    assert(res.head.getLong(0) == 0L)
    assert(res.head.getDouble(1) < 1e-6)
    TestUtil.assertExactKnn(res.map(r => (r.getLong(0), r.getDouble(1).toFloat)).toSeq, local, q, 5)
    blocks.unpersist()
  }

  private def rows(df: org.apache.spark.sql.DataFrame): Seq[(Long, Float)] =
    df.collect().map(r => (r.getLong(0), r.getDouble(1).toFloat)).toSeq

  test("knnExact and knnBond stay exact with more partitions than rows") {
    val vecs = ds.vectors.take(30)
    val blocks = PdxSpark.pack(PdxSpark.toVectorDF(spark, vecs, numPartitions = 48), 8).cache()
    assert(blocks.rdd.mapPartitions(it => Iterator.single(it.size)).collect().contains(0))
    ds.queries.foreach { q =>
      TestUtil.assertExactKnn(rows(PdxSpark.knnExact(blocks, q, 10)), vecs, q, 10)
      TestUtil.assertExactKnn(rows(PdxSpark.knnBond(blocks, q, 10)), vecs, q, 10)
    }
    blocks.unpersist()
  }

  test("k larger than the collection returns every row in (dist, id) order") {
    val vecs = ds.vectors.take(40)
    val blocks = PdxSpark.pack(PdxSpark.toVectorDF(spark, vecs, numPartitions = 3), 16).cache()
    val q = ds.queries.head
    TestUtil.assertAllInOrder(rows(PdxSpark.knnBond(blocks, q, 100)), vecs, q)
    TestUtil.assertAllInOrder(rows(PdxSpark.knnExact(blocks, q, 100)), vecs, q)
    blocks.unpersist()
  }

  test("ties keep the smallest ids for every block size and partition count") {
    // 30 copies of the query stored with descending ids, among 200 others.
    import spark.implicits._
    val q = ds.queries.head
    val data = (29L to 0L by -1L).map(id => (id, q.clone())) ++
      ds.vectors.take(200).zipWithIndex.map { case (v, i) => (100L + i, v) }
    for (bs <- Seq(8, 64, 1000); parts <- Seq(1, 3, 4)) {
      val df = data.toDF("id", "vec").repartition(parts)
      val blocks = PdxSpark.pack(df, bs).cache()
      val expect = (0L until 10L).map(id => (id, 0f))
      assert(rows(PdxSpark.knnBond(blocks, q, 10)) == expect, s"bond bs=$bs parts=$parts")
      assert(rows(PdxSpark.knnExact(blocks, q, 10)) == expect, s"exact bs=$bs parts=$parts")
      blocks.unpersist()
    }
  }

  private def messages(e: Throwable): Seq[String] =
    Iterator.iterate(e)(_.getCause).takeWhile(_ != null).map(t => String.valueOf(t.getMessage)).toSeq

  test("knnBond and knnExact reject a bad query with a message naming the mismatch") {
    val blocks = PdxSpark.pack(PdxSpark.toVectorDF(spark, ds.vectors.take(100), 2), 64)
    val nan = ds.queries.head.clone()
    nan(4) = Float.NaN
    // Non-finite: rejected before any job runs.
    for (query <- Seq(PdxSpark.knnBond(blocks, _: Array[Float], 10),
                      PdxSpark.knnExact(blocks, _: Array[Float], 10),
                      PdxSpark.rangeCount(blocks, _: Array[Float], 1.0))) {
      val e = intercept[IllegalArgumentException](query(nan))
      assert(e.getMessage.contains("dimension 4"), e.getMessage)
      // Wrong dimensionality: the blocks' d is known only in the tasks.
      val e2 = intercept[Exception](query(new Array[Float](12)).collect())
      assert(messages(e2).exists(_.contains("query has 12 dimensions but the data has 24")),
             messages(e2).mkString(" / "))
    }
    val e = intercept[IllegalArgumentException](
      PdxSpark.rangeCount(blocks, ds.queries.head, Double.NaN))
    assert(e.getMessage.contains("r2 is NaN"), e.getMessage)
    // The UDF sees the query only in the tasks, row by row.
    PdxSpark.registerUdf(spark)
    blocks.createOrReplaceTempView("bad_query_blocks")
    for ((queryArg, msg) <- Seq(
           sqlArray(nan) -> "non-finite query value NaN in dimension 4",
           sqlArray(ds.queries.head :+ 0f) -> "query has 25 dimensions but the data has 24",
           "CAST(NULL AS ARRAY<FLOAT>)" -> "argument query is NULL")) {
      val e3 = intercept[Exception](spark.sql(
        s"SELECT pdx_block_knn(data, n, d, ids, means, $queryArg, 10) FROM bad_query_blocks"
      ).collect())
      assert(messages(e3).exists(_.contains(msg)), messages(e3).mkString(" / "))
    }
  }

  test("pack rejects a non-finite or null vector, naming it") {
    val vecs = ds.vectors.take(50).map(_.clone())
    vecs(7)(2) = Float.PositiveInfinity
    val e = intercept[Exception](PdxSpark.pack(PdxSpark.toVectorDF(spark, vecs, 1), 64).collect())
    assert(messages(e).exists(_.contains("non-finite value Infinity in vector")),
           messages(e).mkString(" / "))
    import spark.implicits._
    val withNull = Seq((0L, null: Array[Float]), (1L, Array(1f, 2f))).toDF("id", "vec").coalesce(1)
    val e2 = intercept[Exception](PdxSpark.pack(withNull, 64).collect())
    assert(messages(e2).exists(_.contains("vector 0 of the group is null")),
           messages(e2).mkString(" / "))
  }
}
