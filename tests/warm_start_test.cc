// Warm-start / checkpoint-resume tests: resuming a run from its own
// checkpoint must continue the exact same iterate sequence, including
// through an on-disk round trip.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/nonnegative_tucker.h"
#include "core/parafac.h"
#include "core/tucker.h"
#include "tensor/model_io.h"
#include "test_util.h"

namespace haten2 {
namespace {

using ::haten2::testing::RandomSparseTensor;

TEST(WarmStart, ParafacResumeEqualsStraightRun) {
  Rng rng(901);
  SparseTensor x = RandomSparseTensor({12, 10, 8}, 120, &rng);
  Engine engine(ClusterConfig::ForTesting());

  Haten2Options straight;
  straight.max_iterations = 6;
  straight.tolerance = 0.0;
  Result<KruskalModel> full = Haten2ParafacAls(&engine, x, 3, straight);
  ASSERT_OK(full.status());

  Haten2Options first_half = straight;
  first_half.max_iterations = 3;
  Result<KruskalModel> half = Haten2ParafacAls(&engine, x, 3, first_half);
  ASSERT_OK(half.status());

  Haten2Options second_half = straight;
  second_half.max_iterations = 3;
  second_half.initial_kruskal = &half.value();
  Result<KruskalModel> resumed =
      Haten2ParafacAls(&engine, x, 3, second_half);
  ASSERT_OK(resumed.status());

  EXPECT_DOUBLE_EQ(resumed->fit, full->fit);
  for (size_t m = 0; m < 3; ++m) {
    EXPECT_DOUBLE_EQ(resumed->factors[m].MaxAbsDiff(full->factors[m]), 0.0);
  }
}

TEST(WarmStart, ParafacResumeThroughDiskCheckpoint) {
  Rng rng(902);
  SparseTensor x = RandomSparseTensor({10, 9, 8}, 100, &rng);
  Engine engine(ClusterConfig::ForTesting());

  Haten2Options options;
  options.max_iterations = 4;
  options.tolerance = 0.0;
  Result<KruskalModel> full =
      [&] {
        Haten2Options o = options;
        o.max_iterations = 8;
        return Haten2ParafacAls(&engine, x, 2, o);
      }();
  ASSERT_OK(full.status());

  Result<KruskalModel> half = Haten2ParafacAls(&engine, x, 2, options);
  ASSERT_OK(half.status());
  std::string prefix = std::string(::testing::TempDir()) + "/ckpt";
  ASSERT_OK(SaveKruskalModel(*half, prefix));
  Result<KruskalModel> loaded = LoadKruskalModel(prefix, 3);
  ASSERT_OK(loaded.status());

  Haten2Options resume = options;
  resume.initial_kruskal = &loaded.value();
  Result<KruskalModel> resumed = Haten2ParafacAls(&engine, x, 2, resume);
  ASSERT_OK(resumed.status());
  // The text checkpoint is exact (%.17g), so the resumed run is bitwise on
  // the same trajectory.
  EXPECT_DOUBLE_EQ(resumed->fit, full->fit);
  for (int m = 0; m < 3; ++m) {
    std::remove((prefix + ".mode" + std::to_string(m) + ".txt").c_str());
  }
  std::remove((prefix + ".lambda.txt").c_str());
}

TEST(WarmStart, TuckerResumeEqualsStraightRun) {
  Rng rng(903);
  SparseTensor x = RandomSparseTensor({10, 9, 8}, 100, &rng);
  Engine engine(ClusterConfig::ForTesting());

  Haten2Options straight;
  straight.max_iterations = 6;
  straight.tolerance = 0.0;
  Result<TuckerModel> full =
      Haten2TuckerAls(&engine, x, {3, 3, 3}, straight);
  ASSERT_OK(full.status());

  Haten2Options first_half = straight;
  first_half.max_iterations = 3;
  Result<TuckerModel> half =
      Haten2TuckerAls(&engine, x, {3, 3, 3}, first_half);
  ASSERT_OK(half.status());

  Haten2Options second_half = straight;
  second_half.max_iterations = 3;
  second_half.initial_tucker = &half.value();
  Result<TuckerModel> resumed =
      Haten2TuckerAls(&engine, x, {3, 3, 3}, second_half);
  ASSERT_OK(resumed.status());
  // HOOI's next iterate depends on the factors only up to the QR the warm
  // start applies; the fits must agree tightly.
  EXPECT_NEAR(resumed->fit, full->fit, 1e-9);
}

TEST(WarmStart, NonnegativeTuckerResumeEqualsStraightRun) {
  Rng rng(905);
  SparseTensor x = RandomSparseTensor({9, 8, 7}, 90, &rng);
  Engine engine(ClusterConfig::ForTesting());

  Haten2Options straight;
  straight.max_iterations = 8;
  straight.tolerance = 0.0;
  Result<TuckerModel> full =
      Haten2NonnegativeTuckerAls(&engine, x, {2, 2, 2}, straight);
  ASSERT_OK(full.status());

  Haten2Options first_half = straight;
  first_half.max_iterations = 4;
  Result<TuckerModel> half =
      Haten2NonnegativeTuckerAls(&engine, x, {2, 2, 2}, first_half);
  ASSERT_OK(half.status());

  Haten2Options second_half = first_half;
  second_half.initial_tucker = &half.value();
  Result<TuckerModel> resumed =
      Haten2NonnegativeTuckerAls(&engine, x, {2, 2, 2}, second_half);
  ASSERT_OK(resumed.status());
  // The multiplicative updates keep all their state in the factors and the
  // core, so the continued run is the straight run bit for bit.
  EXPECT_EQ(resumed->fit, full->fit);
  for (size_t m = 0; m < 3; ++m) {
    EXPECT_EQ(resumed->factors[m].MaxAbsDiff(full->factors[m]), 0.0);
  }
  EXPECT_EQ(resumed->core.MaxAbsDiff(full->core), 0.0);

  // Without a core there is no G for the updates to rescale.
  TuckerModel coreless;
  coreless.factors = half->factors;
  second_half.initial_tucker = &coreless;
  EXPECT_TRUE(Haten2NonnegativeTuckerAls(&engine, x, {2, 2, 2}, second_half)
                  .status()
                  .IsInvalidArgument());
}

TEST(WarmStart, RejectsMismatchedWarmStarts) {
  Rng rng(904);
  SparseTensor x = RandomSparseTensor({8, 7, 6}, 50, &rng);
  Engine engine(ClusterConfig::ForTesting());

  KruskalModel wrong_rank;
  wrong_rank.lambda = {1.0};
  wrong_rank.factors.assign(3, DenseMatrix(8, 1));
  Haten2Options options;
  options.initial_kruskal = &wrong_rank;
  EXPECT_TRUE(
      Haten2ParafacAls(&engine, x, 2, options).status().IsInvalidArgument());

  KruskalModel wrong_rows;
  wrong_rows.lambda = {1.0, 1.0};
  wrong_rows.factors.assign(3, DenseMatrix(5, 2));
  options.initial_kruskal = &wrong_rows;
  EXPECT_TRUE(
      Haten2ParafacAls(&engine, x, 2, options).status().IsInvalidArgument());

  // Rank 4, but factors 1 and 2 have 2 columns: every factor's columns are
  // checked, not only factor 0's.
  KruskalModel narrow_factors;
  narrow_factors.lambda.assign(4, 1.0);
  narrow_factors.factors = {DenseMatrix(8, 4), DenseMatrix(7, 2),
                            DenseMatrix(6, 2)};
  options.initial_kruskal = &narrow_factors;
  Status narrow = Haten2ParafacAls(&engine, x, 4, options).status();
  EXPECT_TRUE(narrow.IsInvalidArgument()) << narrow.ToString();
  EXPECT_NE(narrow.message().find("factor 1"), std::string::npos)
      << narrow.ToString();

  TuckerModel wrong_shape;
  wrong_shape.factors.assign(3, DenseMatrix(8, 2));
  Haten2Options tucker_options;
  tucker_options.initial_tucker = &wrong_shape;
  EXPECT_TRUE(Haten2TuckerAls(&engine, x, {2, 2, 2}, tucker_options)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace haten2
