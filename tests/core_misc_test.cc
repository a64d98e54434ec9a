// Tests for the smaller core/mapreduce pieces: variant metadata (Table II),
// cost predictions, intermediate-record types and hashing, SliceBlocks
// conversions, and pipeline stats formatting.

#include <gtest/gtest.h>

#include <unordered_set>

#include "core/contract.h"
#include "linalg/linalg.h"
#include "core/records.h"
#include "core/variant.h"
#include "mapreduce/stats.h"
#include "test_util.h"

namespace haten2 {
namespace {

TEST(VariantMeta, NamesAndTraits) {
  EXPECT_EQ(VariantName(Variant::kNaive), "HaTen2-Naive");
  EXPECT_EQ(VariantName(Variant::kDnn), "HaTen2-DNN");
  EXPECT_EQ(VariantName(Variant::kDrn), "HaTen2-DRN");
  EXPECT_EQ(VariantName(Variant::kDri), "HaTen2-DRI");

  // Table II: each variant adds exactly one idea over the previous.
  EXPECT_FALSE(TraitsOf(Variant::kNaive).decouples_steps);
  EXPECT_TRUE(TraitsOf(Variant::kDnn).decouples_steps);
  EXPECT_FALSE(TraitsOf(Variant::kDnn).removes_dependencies);
  EXPECT_TRUE(TraitsOf(Variant::kDrn).removes_dependencies);
  EXPECT_FALSE(TraitsOf(Variant::kDrn).integrates_jobs);
  EXPECT_TRUE(TraitsOf(Variant::kDri).integrates_jobs);
  for (Variant v : kAllVariants) {
    EXPECT_TRUE(TraitsOf(v).distributed);
  }
}

TEST(VariantMeta, CostPredictionsMatchTableFormulas) {
  const int64_t nnz = 1000;
  const int64_t i = 50;
  const int64_t j = 60;
  const int64_t k = 70;
  const int64_t q = 5;
  const int64_t r = 7;
  EXPECT_EQ(PredictTuckerCost(Variant::kNaive, nnz, i, j, k, q, r)
                .max_intermediate_records,
            nnz + i * j * k);
  EXPECT_EQ(PredictTuckerCost(Variant::kDnn, nnz, i, j, k, q, r)
                .max_intermediate_records,
            nnz * q * r);
  EXPECT_EQ(PredictTuckerCost(Variant::kDrn, nnz, i, j, k, q, r)
                .max_intermediate_records,
            nnz * (q + r));
  EXPECT_EQ(PredictTuckerCost(Variant::kDri, nnz, i, j, k, q, r).total_jobs,
            2);
  EXPECT_EQ(PredictParafacCost(Variant::kDnn, nnz, i, j, k, r)
                .max_intermediate_records,
            nnz + j);
  EXPECT_EQ(PredictParafacCost(Variant::kDrn, nnz, i, j, k, r)
                .max_intermediate_records,
            2 * nnz * r);
  EXPECT_EQ(PredictParafacCost(Variant::kNaive, nnz, i, j, k, r).total_jobs,
            2 * r);
  EXPECT_EQ(PredictParafacCost(Variant::kDnn, nnz, i, j, k, r).total_jobs,
            4 * r);
  EXPECT_EQ(PredictParafacCost(Variant::kDrn, nnz, i, j, k, r).total_jobs,
            2 * r + 1);
  EXPECT_EQ(PredictParafacCost(Variant::kDri, nnz, i, j, k, r).total_jobs,
            2);
}

TEST(CoordRecord, EqualityAndHashing) {
  int64_t a_idx[3] = {1, 2, 3};
  int64_t b_idx[3] = {1, 2, 4};
  Coord a = Coord::FromIndex(a_idx, 3);
  Coord a2 = Coord::FromIndex(a_idx, 3);
  Coord b = Coord::FromIndex(b_idx, 3);
  EXPECT_EQ(a, a2);
  EXPECT_FALSE(a == b);
  EXPECT_EQ(ShuffleHash<Coord>()(a), ShuffleHash<Coord>()(a2));
  EXPECT_NE(ShuffleHash<Coord>()(a), ShuffleHash<Coord>()(b));
  // Unused trailing slots are -1, so order-2 and order-3 coords with the
  // same prefix differ.
  Coord short_coord = Coord::FromIndex(a_idx, 2);
  EXPECT_FALSE(a == short_coord);
}

TEST(ShuffleHashing, SpreadsSequentialKeys) {
  // The identity hash would map sequential tensor indices to few reducers;
  // Mix64 must spread them.
  const int partitions = 16;
  std::vector<int> histogram(partitions, 0);
  for (int64_t i = 0; i < 16000; ++i) {
    ++histogram[static_cast<size_t>(ShuffleHash<int64_t>()(i) % partitions)];
  }
  for (int count : histogram) {
    EXPECT_GT(count, 500);
    EXPECT_LT(count, 1500);
  }
  // Pair/tuple/string hashing all work and discriminate.
  using P = std::pair<int32_t, int64_t>;
  EXPECT_NE(ShuffleHash<P>()({0, 5}), ShuffleHash<P>()({1, 5}));
  using T = std::tuple<int64_t, int64_t, int64_t>;
  EXPECT_NE(ShuffleHash<T>()({1, 2, 3}), ShuffleHash<T>()({3, 2, 1}));
  EXPECT_NE(ShuffleHash<std::string>()("abc"),
            ShuffleHash<std::string>()("abd"));
}

TEST(SliceBlocksType, DenseConversionAndGram) {
  SliceBlocks blocks;
  blocks.free_dim = 4;
  blocks.block_dims = {2, 3};
  EXPECT_EQ(blocks.BlockSize(), 6);
  blocks.slice_ids = {1, 3};
  blocks.values = DenseMatrix::FromRows({{1, 0, 0, 0, 0, 0},
                                         {0, 2, 0, 0, 0, 1}});
  DenseMatrix dense = blocks.ToDenseMatrix();
  EXPECT_EQ(dense.rows(), 4);
  EXPECT_EQ(dense.cols(), 6);
  EXPECT_DOUBLE_EQ(dense(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(dense(3, 1), 2.0);
  EXPECT_DOUBLE_EQ(dense(0, 0), 0.0);  // absent slice = zero row
  DenseMatrix gram = Gram(blocks.values);
  DenseMatrix want = Gram(dense);
  EXPECT_LT(gram.MaxAbsDiff(want), 1e-12);
}

TEST(PipelineStatsType, AggregationAndFormatting) {
  PipelineStats stats;
  JobStats a;
  a.name = "first";
  a.map_output_records = 100;
  a.map_output_bytes = 1600;
  a.wall_seconds = 0.5;
  JobStats b;
  b.name = "second";
  b.map_output_records = 300;
  b.map_output_bytes = 4800;
  b.wall_seconds = 0.25;
  stats.jobs = {a, b};
  EXPECT_EQ(stats.NumJobs(), 2);
  EXPECT_EQ(stats.MaxIntermediateRecords(), 300);
  EXPECT_EQ(stats.MaxIntermediateBytes(), 4800u);
  EXPECT_EQ(stats.TotalIntermediateRecords(), 400);
  EXPECT_DOUBLE_EQ(stats.TotalWallSeconds(), 0.75);
  std::string text = stats.ToString();
  EXPECT_NE(text.find("first"), std::string::npos);
  EXPECT_NE(text.find("second"), std::string::npos);
  stats.Clear();
  EXPECT_EQ(stats.NumJobs(), 0);
}

// Gram accumulated from blocks must match the dense-path Gram on real data
// for all variants (a redundancy the Tucker driver relies on).
TEST(SliceBlocksType, GramMatchesDenseOnRealContraction) {
  Rng rng(401);
  SparseTensor x =
      haten2::testing::RandomSparseTensor({10, 9, 8}, 60, &rng);
  DenseMatrix b = DenseMatrix::RandomNormal(9, 3, &rng);
  DenseMatrix c = DenseMatrix::RandomNormal(8, 2, &rng);
  std::vector<const DenseMatrix*> factors = {nullptr, &b, &c};
  Engine engine(ClusterConfig::ForTesting());
  Result<SliceBlocks> y = MultiModeContract(&engine, x, factors, 0,
                                            MergeKind::kCross,
                                            Variant::kDri);
  ASSERT_OK(y.status());
  DenseMatrix dense = y->ToDenseMatrix();
  EXPECT_LT(Gram(y->values).MaxAbsDiff(Gram(dense)), 1e-10);
}

}  // namespace
}  // namespace haten2
