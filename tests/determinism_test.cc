// End-to-end determinism: full decompositions must be bitwise identical
// across engine thread counts and across repeated runs — the property that
// makes every experiment in this repository reproducible.

#include <gtest/gtest.h>

#include "core/parafac.h"
#include "core/tucker.h"
#include "test_util.h"

namespace haten2 {
namespace {

using ::haten2::testing::RandomSparseTensor;

KruskalModel RunParafac(const ClusterConfig& config, const SparseTensor& x) {
  Engine engine(config);
  Haten2Options options;
  options.max_iterations = 4;
  options.tolerance = 0.0;
  Result<KruskalModel> model = Haten2ParafacAls(&engine, x, 3, options);
  HATEN2_CHECK(model.ok()) << model.status().ToString();
  return std::move(model).value();
}

TuckerModel RunTucker(const ClusterConfig& config, const SparseTensor& x) {
  Engine engine(config);
  Haten2Options options;
  options.max_iterations = 3;
  options.tolerance = 0.0;
  Result<TuckerModel> model = Haten2TuckerAls(&engine, x, {2, 3, 2}, options);
  HATEN2_CHECK(model.ok()) << model.status().ToString();
  return std::move(model).value();
}

TEST(Determinism, ParafacIdenticalAcrossThreadCounts) {
  Rng rng(841);
  SparseTensor x = RandomSparseTensor({20, 18, 16}, 400, &rng);
  ClusterConfig base = ClusterConfig::ForTesting();
  base.num_threads = 1;
  KruskalModel reference = RunParafac(base, x);
  for (int threads : {2, 4, 8}) {
    ClusterConfig config = base;
    config.num_threads = threads;
    KruskalModel model = RunParafac(config, x);
    EXPECT_EQ(model.lambda, reference.lambda) << threads << " threads";
    for (size_t m = 0; m < 3; ++m) {
      EXPECT_DOUBLE_EQ(model.factors[m].MaxAbsDiff(reference.factors[m]),
                       0.0)
          << threads << " threads, mode " << m;
    }
  }
}

TEST(Determinism, TuckerIdenticalAcrossThreadCounts) {
  Rng rng(842);
  SparseTensor x = RandomSparseTensor({16, 15, 14}, 300, &rng);
  ClusterConfig base = ClusterConfig::ForTesting();
  base.num_threads = 1;
  TuckerModel reference = RunTucker(base, x);
  for (int threads : {2, 4}) {
    ClusterConfig config = base;
    config.num_threads = threads;
    TuckerModel model = RunTucker(config, x);
    EXPECT_DOUBLE_EQ(model.core.MaxAbsDiff(reference.core), 0.0)
        << threads << " threads";
    EXPECT_DOUBLE_EQ(model.fit, reference.fit);
  }
}

TEST(Determinism, RepeatedRunsAreIdentical) {
  Rng rng(843);
  SparseTensor x = RandomSparseTensor({14, 13, 12}, 250, &rng);
  ClusterConfig config = ClusterConfig::ForTesting();
  KruskalModel first = RunParafac(config, x);
  KruskalModel second = RunParafac(config, x);
  EXPECT_EQ(first.lambda, second.lambda);
  for (size_t m = 0; m < 3; ++m) {
    EXPECT_DOUBLE_EQ(first.factors[m].MaxAbsDiff(second.factors[m]), 0.0);
  }
}

}  // namespace
}  // namespace haten2
