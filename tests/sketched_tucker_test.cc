// Tests for sketched HOOI (Haten2TuckerAls with Haten2Options::tucker_sketch):
// recovery vs exact HOOI on planted tensors, bit-reproducibility at a fixed
// seed, option validation, checkpoint/resume bit-identity, and the v8
// per-iteration sketch stats.

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

Haten2Options SketchOptions(int polish = 2) {
  Haten2Options options;
  options.tucker_sketch = true;
  options.exact_polish_sweeps = polish;
  return options;
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

  Engine sketched_engine(ClusterConfig::ForTesting());
  options.tucker_sketch = true;
  Result<TuckerModel> sketched =
      Haten2TuckerAls(&sketched_engine, x, {2, 2, 2}, options);
  ASSERT_OK(sketched.status());

  // On an exact low-multilinear-rank tensor the polish sweeps recover the
  // exact-HOOI fixed point to well inside the 2% acceptance band.
  EXPECT_GT(sketched->fit, exact->fit - 0.02);
  EXPECT_GT(sketched->fit, 0.999);
}

TEST(SketchedTucker, FactorsAreOrthonormalAndCoreShaped) {
  Rng rng(33);
  SparseTensor x = RandomSparseTensor({12, 11, 10}, 150, &rng);
  Engine engine(ClusterConfig::ForTesting());
  Haten2Options options = SketchOptions();
  options.max_iterations = 5;
  Result<TuckerModel> model = Haten2TuckerAls(&engine, x, {3, 4, 2}, options);
  ASSERT_OK(model.status());
  for (const DenseMatrix& f : model->factors) {
    EXPECT_TRUE(HasOrthonormalColumns(f, 1e-8));
  }
  EXPECT_EQ(model->core.dims(), (std::vector<int64_t>{3, 4, 2}));
}

TEST(SketchedTucker, BitReproducibleAtFixedSeed) {
  Rng rng(34);
  SparseTensor x = RandomSparseTensor({10, 9, 8}, 120, &rng);
  Haten2Options options = SketchOptions();
  options.max_iterations = 6;
  options.tolerance = 0.0;
  options.seed = 99;
  Engine engine_a(ClusterConfig::ForTesting());
  Engine engine_b(ClusterConfig::ForTesting());
  Result<TuckerModel> a = Haten2TuckerAls(&engine_a, x, {3, 3, 3}, options);
  Result<TuckerModel> b = Haten2TuckerAls(&engine_b, x, {3, 3, 3}, options);
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
  Haten2Options options = SketchOptions();
  options.max_iterations = 3;
  options.tolerance = 0.0;
  Engine engine(ClusterConfig::ForTesting());
  options.seed = 1;
  Result<TuckerModel> a = Haten2TuckerAls(&engine, x, {3, 3, 3}, options);
  options.seed = 2;
  Result<TuckerModel> b = Haten2TuckerAls(&engine, x, {3, 3, 3}, options);
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
  Haten2Options options = SketchOptions();
  options.max_iterations = 20;
  options.tolerance = 0.0;
  options.seed = 7;

  ClusterConfig incore = ClusterConfig::ForTesting();
  incore.contraction = "incore";
  Engine dataflow_engine(ClusterConfig::ForTesting());
  Engine incore_engine(incore);
  Result<TuckerModel> a =
      Haten2TuckerAls(&dataflow_engine, x, {2, 2, 2}, options);
  Result<TuckerModel> b =
      Haten2TuckerAls(&incore_engine, x, {2, 2, 2}, options);
  ASSERT_OK(a.status());
  ASSERT_OK(b.status());
  // Same math on both strategies (kSketchFused is the MTTKRP kernel
  // in-core); summation orders differ, so compare converged results rather
  // than bits.
  EXPECT_GT(b->fit, 0.999);
  EXPECT_NEAR(a->fit, b->fit, 1e-6);
}

TEST(SketchedTucker, FullPolishEqualsExactHooi) {
  // With as many polish sweeps as the run has, no sweep is sketched, so the
  // sketch setting must change nothing but the checkpoint method and the
  // trace's sketch objects: exact HOOI's iterates, bit for bit.
  Rng rng(42);
  SparseTensor x = RandomSparseTensor({10, 9, 8}, 120, &rng);
  for (const char* strategy : {"dataflow", "incore"}) {
    for (int extra_polish : {0, 3}) {
      SCOPED_TRACE(std::string(strategy) + " polish +" +
                   std::to_string(extra_polish));
      ClusterConfig config = ClusterConfig::ForTesting();
      config.contraction = strategy;
      Haten2Options exact;
      exact.max_iterations = 4;
      exact.tolerance = 0.0;
      exact.seed = 5;
      DecompositionTrace exact_trace;
      exact.trace = &exact_trace;
      Haten2Options polished =
          SketchOptions(exact.max_iterations + extra_polish);
      polished.max_iterations = exact.max_iterations;
      polished.tolerance = exact.tolerance;
      polished.seed = exact.seed;
      DecompositionTrace polished_trace;
      polished.trace = &polished_trace;

      Engine exact_engine(config);
      Engine polished_engine(config);
      Result<TuckerModel> want =
          Haten2TuckerAls(&exact_engine, x, {3, 3, 3}, exact);
      Result<TuckerModel> got =
          Haten2TuckerAls(&polished_engine, x, {3, 3, 3}, polished);
      ASSERT_OK(want.status());
      ASSERT_OK(got.status());

      EXPECT_EQ(got->fit, want->fit);
      EXPECT_EQ(got->iterations, want->iterations);
      EXPECT_EQ(got->core_norm_history, want->core_norm_history);
      EXPECT_EQ(got->core.data(), want->core.data());
      for (size_t m = 0; m < 3; ++m) {
        EXPECT_EQ(got->factors[m].data(), want->factors[m].data());
      }
      ASSERT_EQ(polished_trace.iterations.size(),
                exact_trace.iterations.size());
      for (size_t i = 0; i < exact_trace.iterations.size(); ++i) {
        const IterationStats& e = exact_trace.iterations[i];
        const IterationStats& p = polished_trace.iterations[i];
        EXPECT_FALSE(e.has_sketch);
        EXPECT_TRUE(p.has_sketch);
        EXPECT_TRUE(p.sketch_polish);
        EXPECT_EQ(p.sketch_dims, 0);
        EXPECT_EQ(p.core_norm, e.core_norm);
        EXPECT_EQ(p.pipeline.jobs.size(), e.pipeline.jobs.size());
        EXPECT_EQ(p.pipeline.plans.size(), e.pipeline.plans.size());
      }
    }
  }
}

TEST(SketchedTucker, RejectsBadConfig) {
  Rng rng(36);
  SparseTensor x = RandomSparseTensor({8, 8, 8}, 60, &rng);
  Haten2Options options = SketchOptions();
  options.max_iterations = 2;

  Engine engine(ClusterConfig::ForTesting());
  EXPECT_TRUE(Haten2TuckerAls(nullptr, x, {2, 2, 2}, options)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Haten2TuckerAls(&engine, x, {2, 2}, options)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Haten2TuckerAls(&engine, x, {2, 2, 9}, options)
                  .status()
                  .IsInvalidArgument());
  Haten2Options negative_polish = SketchOptions(/*polish=*/-1);
  EXPECT_TRUE(Haten2TuckerAls(&engine, x, {2, 2, 2}, negative_polish)
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
  Engine engine(ClusterConfig::ForTesting());

  Haten2Options options = SketchOptions(/*polish=*/0);
  options.max_iterations = 8;
  options.tolerance = 0.0;
  options.seed = 17;
  Result<TuckerModel> full = Haten2TuckerAls(&engine, x, {3, 3, 3}, options);
  ASSERT_OK(full.status());

  CheckpointOptions ckpt;
  ckpt.directory =
      std::string(::testing::TempDir()) + "/resume_sketched_tucker";
  ckpt.every_n_iterations = 2;
  Haten2Options interrupted = options;
  interrupted.max_iterations = 5;  // killed mid-run after checkpoint 4
  interrupted.checkpoint = &ckpt;
  ASSERT_OK(Haten2TuckerAls(&engine, x, {3, 3, 3}, interrupted).status());

  Result<LoadedCheckpoint> latest = LoadLatestCheckpoint(ckpt.directory);
  ASSERT_OK(latest.status());
  EXPECT_EQ(latest->manifest.method, "sketched-tucker");
  EXPECT_EQ(latest->manifest.iteration, 4);

  DecompositionTrace resumed_trace;
  Haten2Options resume = options;
  resume.resume_from = &latest.value();
  resume.trace = &resumed_trace;
  Result<TuckerModel> resumed = Haten2TuckerAls(&engine, x, {3, 3, 3}, resume);
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
  Engine engine(ClusterConfig::ForTesting());
  Haten2Options resume = options;
  resume.tucker_sketch = true;
  resume.resume_from = &latest.value();
  Result<TuckerModel> resumed = Haten2TuckerAls(&engine, x, {3, 3, 3}, resume);
  EXPECT_TRUE(resumed.status().IsFailedPrecondition())
      << resumed.status().ToString();
}

TEST(SketchedTucker, TraceRecordsSketchDimsAndPolishPhases) {
  Rng rng(39);
  SparseTensor x = RandomSparseTensor({10, 9, 8}, 100, &rng);
  Engine engine(ClusterConfig::ForTesting());
  DecompositionTrace trace;
  Haten2Options options = SketchOptions(/*polish=*/2);
  options.max_iterations = 6;
  options.tolerance = 0.0;
  options.trace = &trace;
  // Core 3x3x3 gives the automatic sketch width 3 + 4 = 7.
  Result<TuckerModel> model = Haten2TuckerAls(&engine, x, {3, 3, 3}, options);
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
  ClusterConfig config = ClusterConfig::ForTesting();
  Engine engine(config);
  DecompositionTrace trace;
  Haten2Options options = SketchOptions();
  options.max_iterations = 4;
  options.tolerance = 0.0;
  options.trace = &trace;
  Result<TuckerModel> model = Haten2TuckerAls(&engine, x, {3, 3, 3}, options);
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
       {"\"schema\":\"haten2-stats-v15\"", "\"sketch\"", "\"seconds\"",
        "\"dims\"", "\"polish\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

}  // namespace
}  // namespace haten2
