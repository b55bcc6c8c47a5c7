package repro.spark

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.{col, rand}
import org.apache.spark.sql.types.LongType

/** Scramble construction at the DataFrame layer (paper Definition 4): a
  * seeded random permutation with an explicit position column, so that
  * `scramble_pos < r` is a uniform without-replacement sample of size r —
  * of the relation and, by the paper's Definition 5 argument, of every
  * aggregate view carved out of it by filters and groupings.
  */
object SparkScramble {

  val PosCol: String = "scramble_pos"

  /** Randomly permute `df` (seeded) and append a contiguous 0-based
    * position column. The shuffle cost is paid once per relation and
    * amortized across queries (paper §4.1).
    */
  def scramble(df: DataFrame, seed: Long = 17L): DataFrame = {
    // Mix the seed (SplitMix64-style) before handing it to rand(): data
    // generators in this repo also use small rand(seed) seeds, and an
    // unmixed collision would sort the "shuffle" by the data itself.
    val mixed    = seed * -7046029254386353131L + 0x9E3779B97F4A7C15L
    val shuffled = df.orderBy(rand(mixed))
    val schema   = shuffled.schema.add(PosCol, LongType, nullable = false)
    val rdd = shuffled.rdd.zipWithIndex().map { case (r, i) => Row.fromSeq(r.toSeq :+ i) }
    df.sparkSession.createDataFrame(rdd, schema)
  }

  /** The first `r` scramble positions: a uniform without-replacement
    * sample of size min(r, |df|).
    */
  def prefix(scrambled: DataFrame, r: Long): DataFrame = slice(scrambled, 0L, r)

  /** Scramble positions `lo <= scramble_pos < hi`: the rows that grow the
    * prefix of size `lo` into the prefix of size `hi`. Positions are
    * contiguous within each partition, so on a cached scramble the
    * per-batch min/max statistics skip every batch outside the slice.
    */
  def slice(scrambled: DataFrame, lo: Long, hi: Long): DataFrame =
    scrambled.filter(col(PosCol) >= lo && col(PosCol) < hi)
}
