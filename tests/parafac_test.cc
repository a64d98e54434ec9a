// Tests for the HaTen2-PARAFAC driver: convergence invariants, exact
// recovery of planted low-rank tensors, variant equivalence, the
// nonnegative extension, and failure paths.

#include "core/parafac.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "baseline/toolbox.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"
#include "util/string_util.h"
#include "workload/random_tensor.h"

namespace haten2 {
namespace {

using ::haten2::testing::RandomSparseTensor;

// An exactly rank-2 dense-as-sparse tensor that PARAFAC must fit almost
// perfectly. Normal factors keep the two components well separated (uniform
// factors are nearly collinear, which slows ALS to a crawl without being a
// correctness problem).
SparseTensor ExactRank2Tensor(Rng* rng) {
  std::vector<double> lambda = {3.0, 1.5};
  DenseMatrix a = DenseMatrix::RandomNormal(8, 2, rng);
  DenseMatrix b = DenseMatrix::RandomNormal(7, 2, rng);
  DenseMatrix c = DenseMatrix::RandomNormal(6, 2, rng);
  Result<DenseTensor> dense = ReconstructKruskal(lambda, {&a, &b, &c});
  HATEN2_CHECK(dense.ok());
  return dense->ToSparse();
}

TEST(Haten2Parafac, RecoversExactRank2Tensor) {
  Rng rng(11);
  SparseTensor x = ExactRank2Tensor(&rng);
  Engine engine(ClusterConfig::ForTesting());
  Haten2Options options;
  options.max_iterations = 100;
  options.tolerance = 1e-12;
  Result<KruskalModel> model = Haten2ParafacAls(&engine, x, 2, options);
  ASSERT_OK(model.status());
  EXPECT_GT(model->fit, 0.999) << "iterations=" << model->iterations;
}

TEST(Haten2Parafac, FitIsNonDecreasingAcrossIterations) {
  Rng rng(12);
  SparseTensor x = RandomSparseTensor({12, 10, 8}, 120, &rng);
  Engine engine(ClusterConfig::ForTesting());
  Haten2Options options;
  options.max_iterations = 12;
  options.tolerance = 0.0;  // run all iterations
  Result<KruskalModel> model = Haten2ParafacAls(&engine, x, 3, options);
  ASSERT_OK(model.status());
  ASSERT_GE(model->fit_history.size(), 2u);
  for (size_t i = 1; i < model->fit_history.size(); ++i) {
    EXPECT_GE(model->fit_history[i], model->fit_history[i - 1] - 1e-9)
        << "fit decreased at iteration " << i;
  }
}

TEST(Haten2Parafac, AllVariantsProduceTheSameModel) {
  Rng rng(13);
  SparseTensor x = RandomSparseTensor({9, 8, 7}, 80, &rng);
  Haten2Options options;
  options.max_iterations = 4;
  options.tolerance = 0.0;

  std::vector<KruskalModel> models;
  for (Variant v : kAllVariants) {
    Engine engine(ClusterConfig::ForTesting());
    options.variant = v;
    Result<KruskalModel> m = Haten2ParafacAls(&engine, x, 3, options);
    ASSERT_OK(m.status());
    models.push_back(std::move(m).value());
  }
  // Same seed + deterministic updates => identical factors across variants.
  for (size_t v = 1; v < models.size(); ++v) {
    EXPECT_NEAR(models[v].fit, models[0].fit, 1e-8);
    for (size_t m = 0; m < models[v].factors.size(); ++m) {
      EXPECT_LT(models[v].factors[m].MaxAbsDiff(models[0].factors[m]), 1e-7)
          << "variant " << v << " factor " << m;
    }
  }
}

TEST(Haten2Parafac, MatchesToolboxBaseline) {
  Rng rng(14);
  SparseTensor x = RandomSparseTensor({10, 9, 8}, 90, &rng);
  Haten2Options mr_options;
  mr_options.max_iterations = 5;
  mr_options.tolerance = 0.0;
  mr_options.seed = 99;
  BaselineOptions tb_options;
  tb_options.max_iterations = 5;
  tb_options.tolerance = 0.0;
  tb_options.seed = 99;

  Engine engine(ClusterConfig::ForTesting());
  Result<KruskalModel> mr = Haten2ParafacAls(&engine, x, 3, mr_options);
  Result<KruskalModel> tb = ToolboxParafacAls(x, 3, tb_options);
  ASSERT_OK(mr.status());
  ASSERT_OK(tb.status());
  EXPECT_NEAR(mr->fit, tb->fit, 1e-8);
  for (size_t m = 0; m < mr->factors.size(); ++m) {
    EXPECT_LT(mr->factors[m].MaxAbsDiff(tb->factors[m]), 1e-7);
  }
}

TEST(Haten2Parafac, FiveWayTensor) {
  Rng rng(19);
  SparseTensor x = RandomSparseTensor({5, 4, 5, 4, 3}, 40, &rng);
  Engine engine(ClusterConfig::ForTesting());
  Haten2Options options;
  options.max_iterations = 3;
  Result<KruskalModel> model = Haten2ParafacAls(&engine, x, 2, options);
  ASSERT_OK(model.status());
  EXPECT_EQ(model->factors.size(), 5u);
  // The direct baseline agrees on the same input and seed.
  BaselineOptions tb;
  tb.max_iterations = 3;
  tb.tolerance = 0.0;
  tb.seed = options.seed;
  options.tolerance = 0.0;
  Engine engine2(ClusterConfig::ForTesting());
  Result<KruskalModel> mr = Haten2ParafacAls(&engine2, x, 2, options);
  Result<KruskalModel> direct = ToolboxParafacAls(x, 2, tb);
  ASSERT_OK(mr.status());
  ASSERT_OK(direct.status());
  EXPECT_NEAR(mr->fit, direct->fit, 1e-8);
}

TEST(Haten2Parafac, FourWayTensor) {
  Rng rng(15);
  SparseTensor x = RandomSparseTensor({6, 5, 4, 7}, 60, &rng);
  Engine engine(ClusterConfig::ForTesting());
  Haten2Options options;
  options.max_iterations = 5;
  Result<KruskalModel> model = Haten2ParafacAls(&engine, x, 2, options);
  ASSERT_OK(model.status());
  EXPECT_EQ(model->factors.size(), 4u);
  EXPECT_GT(model->fit, 0.0);
}

TEST(Haten2Parafac, SeparatesPlantedComponents) {
  LowRankTensorSpec spec;
  spec.dims = {60, 50, 40};
  spec.rank = 3;
  spec.block_size = 10;
  spec.nnz_per_component = 400;
  spec.seed = 7;
  Result<PlantedTensor> planted = GenerateLowRankTensor(spec);
  ASSERT_OK(planted.status());

  Engine engine(ClusterConfig::ForTesting());
  Haten2Options options;
  options.max_iterations = 30;
  Result<KruskalModel> model =
      Haten2ParafacAls(&engine, planted->tensor, 3, options);
  ASSERT_OK(model.status());
  // A sparse random block is not rank-1, so the fit stays modest; what must
  // hold is that each component's top-loaded rows recover its planted block.
  for (int mode = 0; mode < 3; ++mode) {
    std::vector<std::vector<int64_t>> groups;
    for (const auto& membership : planted->memberships) {
      groups.push_back(membership[static_cast<size_t>(mode)]);
    }
    const DenseMatrix& f = model->factors[static_cast<size_t>(mode)];
    std::vector<std::vector<int64_t>> topk(static_cast<size_t>(f.cols()));
    for (int64_t r = 0; r < f.cols(); ++r) {
      std::vector<std::pair<double, int64_t>> scored;
      for (int64_t i = 0; i < f.rows(); ++i) {
        scored.emplace_back(std::fabs(f(i, r)), i);
      }
      std::sort(scored.rbegin(), scored.rend());
      for (int64_t k = 0; k < spec.block_size; ++k) {
        topk[static_cast<size_t>(r)].push_back(
            scored[static_cast<size_t>(k)].second);
      }
    }
    // Every planted block should be the top-loaded set of some component.
    int recovered = 0;
    for (const auto& group : groups) {
      std::unordered_set<int64_t> members(group.begin(), group.end());
      for (const auto& top : topk) {
        int64_t hits = 0;
        for (int64_t i : top) hits += members.count(i) > 0 ? 1 : 0;
        if (hits >= static_cast<int64_t>(0.8 * spec.block_size)) {
          ++recovered;
          break;
        }
      }
    }
    EXPECT_GE(recovered, 3) << "mode " << mode;
  }
}

TEST(Haten2Parafac, NonnegativeFactorsStayNonnegative) {
  Rng rng(16);
  SparseTensor x = RandomSparseTensor({10, 9, 8}, 100, &rng);
  Engine engine(ClusterConfig::ForTesting());
  Haten2Options options;
  options.max_iterations = 10;
  options.nonnegative = true;
  Result<KruskalModel> model = Haten2ParafacAls(&engine, x, 3, options);
  ASSERT_OK(model.status());
  for (const DenseMatrix& f : model->factors) {
    for (double v : f.data()) {
      EXPECT_GE(v, 0.0);
    }
  }
  for (double l : model->lambda) EXPECT_GE(l, 0.0);
  EXPECT_GT(model->fit, 0.0);
}

TEST(Haten2Parafac, NonnegativeFitImprovesOverIterations) {
  LowRankTensorSpec spec;
  spec.dims = {30, 30, 30};
  spec.rank = 2;
  spec.block_size = 8;
  spec.nnz_per_component = 200;
  Result<PlantedTensor> planted = GenerateLowRankTensor(spec);
  ASSERT_OK(planted.status());
  Engine engine(ClusterConfig::ForTesting());
  Haten2Options options;
  options.max_iterations = 25;
  options.nonnegative = true;
  options.tolerance = 0.0;
  Result<KruskalModel> model =
      Haten2ParafacAls(&engine, planted->tensor, 2, options);
  ASSERT_OK(model.status());
  ASSERT_GE(model->fit_history.size(), 2u);
  EXPECT_GT(model->fit_history.back(), model->fit_history.front());
}

// The driver takes its fit from the sweep (Grams and the last mode's
// MTTKRP) instead of re-walking X. Whatever the update rule, contraction
// path, order or sweep count, it must agree with the public KruskalFit of
// the model it returns.
TEST(Haten2Parafac, SweepFitMatchesKruskalFit) {
  Rng rng(31);
  const SparseTensor x3 = RandomSparseTensor({12, 10, 9}, 150, &rng);
  const SparseTensor x4 = RandomSparseTensor({7, 6, 5, 4}, 150, &rng);
  for (const SparseTensor* x : {&x3, &x4}) {
    for (bool nonnegative : {false, true}) {
      for (const char* contraction : {"incore", "dataflow"}) {
        for (int iterations = 1; iterations <= 4; ++iterations) {
          SCOPED_TRACE(StrFormat("order %d nonnegative %d %s iterations %d",
                                 x->order(), nonnegative, contraction,
                                 iterations));
          ClusterConfig config = ClusterConfig::ForTesting();
          config.contraction = contraction;
          Engine engine(config);
          Haten2Options options;
          options.max_iterations = iterations;
          options.tolerance = 0.0;
          options.nonnegative = nonnegative;
          Result<KruskalModel> model =
              Haten2ParafacAls(&engine, *x, 3, options);
          ASSERT_OK(model.status());
          ASSERT_EQ(model->iterations, iterations);
          Result<double> reference = KruskalFit(*x, *model);
          ASSERT_OK(reference.status());
          EXPECT_NEAR(model->fit, *reference, 1e-12 * std::fabs(*reference));
          EXPECT_EQ(model->fit_history.back(), model->fit);
        }
      }
    }
  }
}

TEST(Haten2Parafac, RejectsBadInput) {
  Rng rng(17);
  SparseTensor x = RandomSparseTensor({5, 5, 5}, 20, &rng);
  Engine engine(ClusterConfig::ForTesting());
  EXPECT_TRUE(Haten2ParafacAls(nullptr, x, 2).status().IsInvalidArgument());
  EXPECT_TRUE(Haten2ParafacAls(&engine, x, 0).status().IsInvalidArgument());
  EXPECT_TRUE(Haten2ParafacAls(&engine, x, -3).status().IsInvalidArgument());
  Result<SparseTensor> empty = SparseTensor::Create3(4, 4, 4);
  ASSERT_OK(empty.status());
  EXPECT_TRUE(
      Haten2ParafacAls(&engine, *empty, 2).status().IsInvalidArgument());
}

TEST(Haten2Parafac, PropagatesOom) {
  Rng rng(18);
  SparseTensor x = RandomSparseTensor({30, 30, 30}, 500, &rng);
  ClusterConfig config = ClusterConfig::ForTesting();
  config.total_shuffle_memory_bytes = 4 * 1024;  // absurdly small
  Engine engine(config);
  Result<KruskalModel> model = Haten2ParafacAls(&engine, x, 5);
  ASSERT_FALSE(model.ok());
  EXPECT_TRUE(model.status().IsResourceExhausted())
      << model.status().ToString();
}

}  // namespace
}  // namespace haten2
