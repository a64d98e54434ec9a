// Tests for the sketched-HOOI Tucker driver: recovery vs the exact driver on
// planted tensors, bit-reproducibility at a fixed seed, config validation,
// checkpoint/resume bit-identity, and the v8 per-iteration sketch stats.

#include "core/sketched_tucker.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/checkpoint.h"
#include "core/tucker.h"
#include "linalg/linalg.h"
#include "mapreduce/stats_json.h"
#include "tensor/tensor_ops.h"
#include "json_checker.h"
#include "test_util.h"
#include "workload/random_tensor.h"

namespace haten2 {
namespace {

using ::haten2::testing::JsonChecker;
using ::haten2::testing::RandomSparseTensor;

// An exact multilinear-rank (2,2,2) tensor, same construction as
// tucker_test.cc so the two drivers are exercised on the same family.
SparseTensor ExactTuckerTensor(Rng* rng) {
  Result<DenseTensor> core = DenseTensor::Create({2, 2, 2});
  HATEN2_CHECK(core.ok());
  for (double& v : core->data()) v = rng->Uniform(0.5, 2.0);
  DenseMatrix a = DenseMatrix::RandomUniform(8, 2, rng);
  DenseMatrix b = DenseMatrix::RandomUniform(7, 2, rng);
  DenseMatrix c = DenseMatrix::RandomUniform(6, 2, rng);
  Result<DenseTensor> dense = ReconstructTucker(*core, {&a, &b, &c});
  HATEN2_CHECK(dense.ok());
  return dense->ToSparse();
}

ClusterConfig SketchConfig(const std::string& kind, int64_t sketch_size = 0,
                           int polish = 2) {
  ClusterConfig config = ClusterConfig::ForTesting();
  config.tucker_sketch = kind;
  config.sketch_size = sketch_size;
  config.exact_polish_sweeps = polish;
  return config;
}

TEST(SketchedTucker, GaussianFitWithinTwoPercentOfExact) {
  Rng rng(31);
  SparseTensor x = ExactTuckerTensor(&rng);
  Haten2Options options;
  options.max_iterations = 20;
  options.tolerance = 0.0;
  options.seed = 7;

  Engine exact_engine(ClusterConfig::ForTesting());
  Result<TuckerModel> exact =
      Haten2TuckerAls(&exact_engine, x, {2, 2, 2}, options);
  ASSERT_OK(exact.status());

  Engine sketched_engine(SketchConfig("gaussian"));
  Result<TuckerModel> sketched =
      Haten2SketchedTuckerAls(&sketched_engine, x, {2, 2, 2}, options);
  ASSERT_OK(sketched.status());

  // On an exact low-multilinear-rank tensor the polish sweeps recover the
  // exact-HOOI fixed point to well inside the 2% acceptance band.
  EXPECT_GT(sketched->fit, exact->fit - 0.02);
  EXPECT_GT(sketched->fit, 0.999);
}

TEST(SketchedTucker, CountSketchRecoversPlantedTensor) {
  Rng rng(32);
  SparseTensor x = ExactTuckerTensor(&rng);
  Engine engine(SketchConfig("countsketch", /*sketch_size=*/8));
  Haten2Options options;
  options.max_iterations = 25;
  options.tolerance = 0.0;
  options.seed = 3;
  Result<TuckerModel> model =
      Haten2SketchedTuckerAls(&engine, x, {2, 2, 2}, options);
  ASSERT_OK(model.status());
  EXPECT_GT(model->fit, 0.99);
}

TEST(SketchedTucker, FactorsAreOrthonormalAndCoreShaped) {
  Rng rng(33);
  SparseTensor x = RandomSparseTensor({12, 11, 10}, 150, &rng);
  Engine engine(SketchConfig("gaussian"));
  Haten2Options options;
  options.max_iterations = 5;
  Result<TuckerModel> model =
      Haten2SketchedTuckerAls(&engine, x, {3, 4, 2}, options);
  ASSERT_OK(model.status());
  for (const DenseMatrix& f : model->factors) {
    EXPECT_TRUE(HasOrthonormalColumns(f, 1e-8));
  }
  EXPECT_EQ(model->core.dims(), (std::vector<int64_t>{3, 4, 2}));
}

TEST(SketchedTucker, BitReproducibleAtFixedSeed) {
  Rng rng(34);
  SparseTensor x = RandomSparseTensor({10, 9, 8}, 120, &rng);
  Haten2Options options;
  options.max_iterations = 6;
  options.tolerance = 0.0;
  options.seed = 99;
  Engine engine_a(SketchConfig("gaussian"));
  Engine engine_b(SketchConfig("gaussian"));
  Result<TuckerModel> a = Haten2SketchedTuckerAls(&engine_a, x, {3, 3, 3},
                                                  options);
  Result<TuckerModel> b = Haten2SketchedTuckerAls(&engine_b, x, {3, 3, 3},
                                                  options);
  ASSERT_OK(a.status());
  ASSERT_OK(b.status());
  EXPECT_DOUBLE_EQ(a->fit, b->fit);
  EXPECT_DOUBLE_EQ(a->core.MaxAbsDiff(b->core), 0.0);
  for (size_t m = 0; m < 3; ++m) {
    EXPECT_DOUBLE_EQ(a->factors[m].MaxAbsDiff(b->factors[m]), 0.0);
  }
}

TEST(SketchedTucker, DifferentSeedsDiverge) {
  Rng rng(35);
  SparseTensor x = RandomSparseTensor({10, 9, 8}, 120, &rng);
  Haten2Options options;
  options.max_iterations = 3;
  options.tolerance = 0.0;
  Engine engine(SketchConfig("gaussian"));
  options.seed = 1;
  Result<TuckerModel> a =
      Haten2SketchedTuckerAls(&engine, x, {3, 3, 3}, options);
  options.seed = 2;
  Result<TuckerModel> b =
      Haten2SketchedTuckerAls(&engine, x, {3, 3, 3}, options);
  ASSERT_OK(a.status());
  ASSERT_OK(b.status());
  double diff = 0.0;
  for (size_t m = 0; m < 3; ++m) {
    diff = std::max(diff, a->factors[m].MaxAbsDiff(b->factors[m]));
  }
  EXPECT_GT(diff, 0.0);
}

TEST(SketchedTucker, RunsOnTheInCoreStrategy) {
  Rng rng(41);
  SparseTensor x = ExactTuckerTensor(&rng);
  Haten2Options options;
  options.max_iterations = 20;
  options.tolerance = 0.0;
  options.seed = 7;

  ClusterConfig dataflow = SketchConfig("gaussian");
  ClusterConfig incore = SketchConfig("gaussian");
  incore.contraction = "incore";
  Engine dataflow_engine(dataflow);
  Engine incore_engine(incore);
  Result<TuckerModel> a =
      Haten2SketchedTuckerAls(&dataflow_engine, x, {2, 2, 2}, options);
  Result<TuckerModel> b =
      Haten2SketchedTuckerAls(&incore_engine, x, {2, 2, 2}, options);
  ASSERT_OK(a.status());
  ASSERT_OK(b.status());
  // Same math on both strategies (kSketchFused is the MTTKRP kernel
  // in-core); summation orders differ, so compare converged results rather
  // than bits.
  EXPECT_GT(b->fit, 0.999);
  EXPECT_NEAR(a->fit, b->fit, 1e-6);
}

TEST(SketchedTucker, RejectsBadConfig) {
  Rng rng(36);
  SparseTensor x = RandomSparseTensor({8, 8, 8}, 60, &rng);
  Haten2Options options;
  options.max_iterations = 2;

  // The sketched driver refuses to run as a silent exact fallback.
  Engine none_engine(ClusterConfig::ForTesting());
  EXPECT_TRUE(Haten2SketchedTuckerAls(&none_engine, x, {2, 2, 2}, options)
                  .status()
                  .IsInvalidArgument());

  // An explicit sketch width below the largest core dimension cannot feed
  // the range finder.
  Engine narrow_engine(SketchConfig("gaussian", /*sketch_size=*/2));
  EXPECT_TRUE(Haten2SketchedTuckerAls(&narrow_engine, x, {2, 4, 2}, options)
                  .status()
                  .IsInvalidArgument());

  Engine engine(SketchConfig("gaussian"));
  EXPECT_TRUE(Haten2SketchedTuckerAls(nullptr, x, {2, 2, 2}, options)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Haten2SketchedTuckerAls(&engine, x, {2, 2}, options)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Haten2SketchedTuckerAls(&engine, x, {2, 2, 9}, options)
                  .status()
                  .IsInvalidArgument());
}

TEST(SketchedTucker, ResumeIsBitIdentical) {
  Rng rng(37);
  SparseTensor x = RandomSparseTensor({12, 10, 8}, 120, &rng);
  // polish=0 keeps every sweep in the sketched phase. The polish boundary
  // counts back from max_iterations, so simulating a kill by shrinking the
  // iteration budget (the pattern checkpoint_test.cc uses) would otherwise
  // move which sweeps are exact; a real kill leaves the budget unchanged
  // and resume is bit-identical for any polish count.
  Engine engine(SketchConfig("gaussian", /*sketch_size=*/0, /*polish=*/0));

  Haten2Options options;
  options.max_iterations = 8;
  options.tolerance = 0.0;
  options.seed = 17;
  Result<TuckerModel> full =
      Haten2SketchedTuckerAls(&engine, x, {3, 3, 3}, options);
  ASSERT_OK(full.status());

  CheckpointOptions ckpt;
  ckpt.directory =
      std::string(::testing::TempDir()) + "/resume_sketched_tucker";
  ckpt.every_n_iterations = 2;
  Haten2Options interrupted = options;
  interrupted.max_iterations = 5;  // killed mid-run after checkpoint 4
  interrupted.checkpoint = &ckpt;
  ASSERT_OK(
      Haten2SketchedTuckerAls(&engine, x, {3, 3, 3}, interrupted).status());

  Result<LoadedCheckpoint> latest = LoadLatestCheckpoint(ckpt.directory);
  ASSERT_OK(latest.status());
  EXPECT_EQ(latest->manifest.method, "sketched-tucker");
  EXPECT_EQ(latest->manifest.iteration, 4);

  DecompositionTrace resumed_trace;
  Haten2Options resume = options;
  resume.resume_from = &latest.value();
  resume.trace = &resumed_trace;
  Result<TuckerModel> resumed =
      Haten2SketchedTuckerAls(&engine, x, {3, 3, 3}, resume);
  ASSERT_OK(resumed.status());

  EXPECT_DOUBLE_EQ(resumed->fit, full->fit);
  EXPECT_EQ(resumed->iterations, full->iterations);
  EXPECT_EQ(resumed->core_norm_history, full->core_norm_history);
  EXPECT_DOUBLE_EQ(resumed->core.MaxAbsDiff(full->core), 0.0);
  for (size_t m = 0; m < 3; ++m) {
    EXPECT_DOUBLE_EQ(resumed->factors[m].MaxAbsDiff(full->factors[m]), 0.0);
  }
  ASSERT_FALSE(resumed_trace.iterations.empty());
  EXPECT_EQ(resumed_trace.iterations.front().iteration, 5);
  EXPECT_EQ(resumed_trace.iterations.back().iteration, 8);
}

TEST(SketchedTucker, ResumeRejectsExactTuckerCheckpoint) {
  Rng rng(38);
  SparseTensor x = RandomSparseTensor({10, 9, 8}, 100, &rng);
  Haten2Options options;
  options.max_iterations = 4;
  options.tolerance = 0.0;

  // Write an exact-Tucker checkpoint...
  Engine exact_engine(ClusterConfig::ForTesting());
  CheckpointOptions ckpt;
  ckpt.directory =
      std::string(::testing::TempDir()) + "/sketched_rejects_exact";
  ckpt.every_n_iterations = 2;
  Haten2Options exact_options = options;
  exact_options.checkpoint = &ckpt;
  ASSERT_OK(
      Haten2TuckerAls(&exact_engine, x, {3, 3, 3}, exact_options).status());
  Result<LoadedCheckpoint> latest = LoadLatestCheckpoint(ckpt.directory);
  ASSERT_OK(latest.status());

  // ...and refuse to resume it under the sketched method: the iterate
  // sequences are different algorithms.
  Engine engine(SketchConfig("gaussian"));
  Haten2Options resume = options;
  resume.resume_from = &latest.value();
  Result<TuckerModel> resumed =
      Haten2SketchedTuckerAls(&engine, x, {3, 3, 3}, resume);
  EXPECT_TRUE(resumed.status().IsFailedPrecondition())
      << resumed.status().ToString();
}

TEST(SketchedTucker, TraceRecordsSketchDimsAndPolishPhases) {
  Rng rng(39);
  SparseTensor x = RandomSparseTensor({10, 9, 8}, 100, &rng);
  Engine engine(SketchConfig("gaussian", /*sketch_size=*/7, /*polish=*/2));
  DecompositionTrace trace;
  Haten2Options options;
  options.max_iterations = 6;
  options.tolerance = 0.0;
  options.trace = &trace;
  Result<TuckerModel> model =
      Haten2SketchedTuckerAls(&engine, x, {3, 3, 3}, options);
  ASSERT_OK(model.status());

  ASSERT_EQ(trace.iterations.size(), 6u);
  for (const IterationStats& it : trace.iterations) {
    EXPECT_TRUE(it.has_sketch);
    const bool polish = it.iteration > 4;  // last 2 of 6 sweeps
    EXPECT_EQ(it.sketch_polish, polish) << "iteration " << it.iteration;
    EXPECT_EQ(it.sketch_dims, polish ? 0 : 7) << "iteration " << it.iteration;
  }

  // Sketched sweeps run Sketch[...] plan nodes tagged with the "sketch"
  // strategy. They execute no engine jobs, so like in-core nodes they are
  // absent from the per-iteration job-watermark slices and show up in the
  // engine-wide pipeline log.
  bool saw_sketch_node = false;
  for (const PlanStats& plan : engine.pipeline().plans) {
    for (const PlanNodeStats& node : plan.nodes) {
      if (node.label.find("Sketch[gaussian") != std::string::npos) {
        saw_sketch_node = true;
        EXPECT_EQ(node.contraction_strategy, "sketch");
      }
    }
  }
  EXPECT_TRUE(saw_sketch_node);
}

TEST(SketchedTucker, StatsJsonCarriesV8SketchObject) {
  Rng rng(40);
  SparseTensor x = RandomSparseTensor({10, 9, 8}, 100, &rng);
  ClusterConfig config = SketchConfig("gaussian");
  Engine engine(config);
  DecompositionTrace trace;
  Haten2Options options;
  options.max_iterations = 4;
  options.tolerance = 0.0;
  options.trace = &trace;
  Result<TuckerModel> model =
      Haten2SketchedTuckerAls(&engine, x, {3, 3, 3}, options);
  ASSERT_OK(model.status());

  StatsReport report;
  report.tool = "sketched_tucker_test";
  report.method = "sketched-tucker";
  report.variant = "dri";
  report.dataset = "random";
  report.has_fit = true;
  report.fit = model->fit;
  report.iterations_run = model->iterations;
  report.cluster = &config;
  report.trace = &trace;
  report.pipeline = &engine.pipeline();
  std::string json = StatsReportToJson(report);

  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  for (const char* key :
       {"\"schema\":\"haten2-stats-v13\"", "\"sketch\"", "\"seconds\"",
        "\"dims\"", "\"polish\"", "\"tucker_sketch\":\"gaussian\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

}  // namespace
}  // namespace haten2
