// Tests for the subprocess Engine backend: direct jobs and all four ALS
// drivers must be bit-identical to the in-process backend at fixed seeds,
// a job's counters must match the in-process ones on success and failure,
// output types outside the wire codec's reach must fail cleanly with
// kUnimplemented, and a worker killed mid-job must surface as kAborted
// ("worker_lost"), feed the plan-level node retry, and still converge
// bit-identically — with the restart/retry counters visible in the
// haten2-stats-v10 JSON export.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/missing_values.h"
#include "core/nonnegative_tucker.h"
#include "core/parafac.h"
#include "core/tucker.h"
#include "mapreduce/engine.h"
#include "mapreduce/plan.h"
#include "mapreduce/scheduler.h"
#include "mapreduce/stats_json.h"
#include "test_util.h"

namespace haten2 {
namespace {

using testing::WithSubprocessBackend;
using distributed::WorkerStats;

ClusterConfig BaseConfig() {
  ClusterConfig config = ClusterConfig::ForTesting();
  config.spill_directory = testing::PerTestDir();
  return config;
}

// A small deterministic job: keys 0..6, values summed per key.
template <typename EngineT>
Result<std::vector<std::pair<int64_t, double>>> RunSumJob(EngineT* engine) {
  return engine->template Run<int64_t, double, int64_t, double>(
      "backend-sum", 200,
      [](int64_t i, ShuffleEmitter<int64_t, double>* em) {
        em->Emit(i % 7, static_cast<double>(i) * 0.5);
        em->Emit((i * 3) % 7, 1.0);
      },
      [](const int64_t& key, std::vector<double>& values,
         OutputEmitter<int64_t, double>* out) {
        double sum = 0.0;
        for (double v : values) sum += v;
        out->Emit(key, sum);
      });
}

TEST(DistributedBackendTest, SimpleJobMatchesInprocess) {
  Engine reference(BaseConfig());
  auto want = RunSumJob(&reference);
  ASSERT_OK(want.status());

  Engine engine(WithSubprocessBackend(BaseConfig(), 2));
  auto got = RunSumJob(&engine);
  ASSERT_OK(got.status());
  EXPECT_EQ(*got, *want);

  // The gang actually ran and moved bytes.
  const std::vector<WorkerStats> workers = engine.WorkerStatsSnapshot();
  ASSERT_EQ(workers.size(), 2u);
  uint64_t total_sent = 0;
  for (const WorkerStats& w : workers) total_sent += w.wire_bytes_sent;
  EXPECT_GT(total_sent, 0u);
}

TEST(DistributedBackendTest, CombinerJobMatchesInprocessWithStatsParity) {
  auto run = [](Engine* engine) {
    return engine->Run<int64_t, double, int64_t, double>(
        "backend-combine", 500,
        [](int64_t i, ShuffleEmitter<int64_t, double>* em) {
          em->Emit(i % 11, 1.0);
        },
        [](const int64_t& key, std::vector<double>& values,
           OutputEmitter<int64_t, double>* out) {
          double sum = 0.0;
          for (double v : values) sum += v;
          out->Emit(key, sum);
        },
        [](const double& a, const double& b) { return a + b; });
  };
  Engine reference(BaseConfig());
  auto want = run(&reference);
  ASSERT_OK(want.status());
  Engine engine(WithSubprocessBackend(BaseConfig(), 3));
  auto got = run(&engine);
  ASSERT_OK(got.status());
  EXPECT_EQ(*got, *want);

  // Counter parity: both backends saw the same records through the same
  // emitters and combiners.
  const JobStats& a = reference.pipeline().jobs.back();
  const JobStats& b = engine.pipeline().jobs.back();
  EXPECT_EQ(b.map_input_records, a.map_input_records);
  EXPECT_EQ(b.pre_combine_records, a.pre_combine_records);
  EXPECT_EQ(b.map_output_records, a.map_output_records);
  EXPECT_EQ(b.map_output_bytes, a.map_output_bytes);
  EXPECT_EQ(b.reduce_output_records, a.reduce_output_records);
}

TEST(DistributedBackendTest, SpillingJobMatchesInprocess) {
  auto config = [] {
    ClusterConfig c = BaseConfig();
    c.spill_threshold_records = 16;  // force spill runs through the codec
    return c;
  };
  auto run = [](Engine* engine) {
    return engine->Run<int64_t, int64_t, int64_t, int64_t>(
        "backend-spill", 600,
        [](int64_t i, ShuffleEmitter<int64_t, int64_t>* em) {
          em->Emit(i % 29, i);
        },
        [](const int64_t& key, std::vector<int64_t>& values,
           OutputEmitter<int64_t, int64_t>* out) {
          int64_t sum = key;
          for (int64_t v : values) sum += v;
          out->Emit(key, sum);
        });
  };
  Engine reference(config());
  auto want = run(&reference);
  ASSERT_OK(want.status());
  Engine engine(WithSubprocessBackend(config(), 2));
  auto got = run(&engine);
  ASSERT_OK(got.status());
  EXPECT_EQ(*got, *want);
  // Both backends actually spilled.
  EXPECT_GT(reference.pipeline().jobs.back().spilled_records, 0);
  EXPECT_EQ(engine.pipeline().jobs.back().spilled_records,
            reference.pipeline().jobs.back().spilled_records);
}

TEST(DistributedBackendTest, VectorOutputMatchesInprocess) {
  auto run = [](Engine* engine) {
    return engine->Run<int64_t, double, int64_t, std::vector<double>>(
        "backend-vector-out", 120,
        [](int64_t i, ShuffleEmitter<int64_t, double>* em) {
          em->Emit(i % 5, static_cast<double>(i));
        },
        [](const int64_t& key, std::vector<double>& values,
           OutputEmitter<int64_t, std::vector<double>>* out) {
          std::vector<double> row = {static_cast<double>(key),
                                     static_cast<double>(values.size())};
          out->Emit(key, row);
        });
  };
  Engine reference(BaseConfig());
  auto want = run(&reference);
  ASSERT_OK(want.status());
  Engine engine(WithSubprocessBackend(BaseConfig(), 2));
  auto got = run(&engine);
  ASSERT_OK(got.status());
  EXPECT_EQ(*got, *want);
}

TEST(DistributedBackendTest, NonSerializableOutputIsUnimplemented) {
  Engine engine(WithSubprocessBackend(BaseConfig(), 2));
  auto result = engine.Run<int64_t, double, int64_t, std::string>(
      "backend-string-out", 10,
      [](int64_t i, ShuffleEmitter<int64_t, double>* em) {
        em->Emit(i, 1.0);
      },
      [](const int64_t& key, std::vector<double>&,
         OutputEmitter<int64_t, std::string>* out) {
        out->Emit(key, "text");
      });
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnimplemented())
      << result.status().ToString();
  EXPECT_NE(result.status().ToString().find("backend-string-out"),
            std::string::npos);
  // Refused before the job takes an id: the pipeline log records nothing.
  EXPECT_EQ(engine.NextJobId(), 0);
  EXPECT_TRUE(engine.pipeline().jobs.empty());
}

// ---------------------------------------------------------------------------
// Counter parity: both backends run map tasks with the same RunMapTask and
// Engine::Run folds either backend's reports with the same FoldMapReports,
// so a job's JobStats match field for field — on failed jobs too.
// ---------------------------------------------------------------------------

Result<std::vector<std::pair<int64_t, double>>> RunParityJob(Engine* engine) {
  return engine->Run<int64_t, double, int64_t, double>(
      "parity", 900,
      [](int64_t i, ShuffleEmitter<int64_t, double>* em) {
        em->Emit(i % 13, static_cast<double>(i));
        em->Emit((i * 7) % 31, 1.0);
      },
      [](const int64_t& key, std::vector<double>& values,
         OutputEmitter<int64_t, double>* out) {
        double sum = 0.0;
        for (double v : values) sum += v;
        out->Emit(key, sum);
      },
      [](const double& a, const double& b) { return a + b; });
}

// Every JobStats field except the wall-clock timings.
void ExpectSameCounters(const JobStats& got, const JobStats& want) {
  EXPECT_EQ(got.name, want.name);
  EXPECT_EQ(got.job_id, want.job_id);
  EXPECT_EQ(got.plan_id, want.plan_id);
  EXPECT_EQ(got.map_input_records, want.map_input_records);
  EXPECT_EQ(got.pre_combine_records, want.pre_combine_records);
  EXPECT_EQ(got.map_output_records, want.map_output_records);
  EXPECT_EQ(got.map_output_bytes, want.map_output_bytes);
  EXPECT_EQ(got.reduce_input_groups, want.reduce_input_groups);
  EXPECT_EQ(got.reduce_output_records, want.reduce_output_records);
  EXPECT_EQ(got.map_task_records, want.map_task_records);
  EXPECT_EQ(got.map_task_attempts, want.map_task_attempts);
  EXPECT_EQ(got.map_task_retries, want.map_task_retries);
  EXPECT_EQ(got.spilled_records, want.spilled_records);
  EXPECT_EQ(got.spilled_bytes, want.spilled_bytes);
  EXPECT_EQ(got.spilled_raw_bytes, want.spilled_raw_bytes);
  EXPECT_EQ(got.spilled_compressed_bytes, want.spilled_compressed_bytes);
  EXPECT_EQ(got.map_task_spilled_bytes, want.map_task_spilled_bytes);
  EXPECT_EQ(got.reduce_partition_records, want.reduce_partition_records);
  EXPECT_EQ(got.reduce_partition_bytes, want.reduce_partition_bytes);
  EXPECT_EQ(got.failure, want.failure);
}

TEST(DistributedBackendParity, JobCountersMatchOnSuccessAndFailure) {
  struct Case {
    const char* label;
    void (*setup)(ClusterConfig*);
    StatusCode code;
    bool spills;
  };
  const Case cases[] = {
      {"spill + combine",
       [](ClusterConfig* c) { c->spill_threshold_records = 16; },
       StatusCode::kOk, true},
      {"delta_varint spill",
       [](ClusterConfig* c) {
         c->spill_threshold_records = 16;
         c->spill_compression = SpillCompression::kDeltaVarint;
       },
       StatusCode::kOk, true},
      {"flaky retries",
       [](ClusterConfig* c) {
         c->task_failure_probability = 0.4;
         c->max_task_attempts = 10;
       },
       StatusCode::kOk, false},
      {"every attempt fails",
       [](ClusterConfig* c) { c->task_failure_probability = 1.0; },
       StatusCode::kAborted, false},
      {"torn spill write",
       [](ClusterConfig* c) {
         c->spill_threshold_records = 16;
         c->inject_spill_failure_after_bytes = 1000;
       },
       StatusCode::kIOError, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    ClusterConfig config = BaseConfig();
    c.setup(&config);
    Engine inprocess(config);
    Engine subprocess(WithSubprocessBackend(config, 2));
    auto want = RunParityJob(&inprocess);
    auto got = RunParityJob(&subprocess);
    EXPECT_EQ(want.status().code(), c.code) << want.status().ToString();
    EXPECT_EQ(got.status().code(), c.code) << got.status().ToString();
    if (want.ok() && got.ok()) {
      EXPECT_EQ(*got, *want);
    }
    ASSERT_EQ(inprocess.pipeline().jobs.size(), 1u);
    ASSERT_EQ(subprocess.pipeline().jobs.size(), 1u);
    const JobStats& a = inprocess.pipeline().jobs[0];
    ExpectSameCounters(subprocess.pipeline().jobs[0], a);
    if (config.task_failure_probability == 0.4) {
      EXPECT_GT(a.map_task_retries, 0);
    }
    if (c.spills) {
      EXPECT_GT(a.spilled_records, 0);
    }
  }
}

TEST(DistributedBackendParity, OomFailsTheSameJobOnBothBackends) {
  ClusterConfig config = ClusterConfig::ForTesting();
  config.total_shuffle_memory_bytes = 4096;
  auto run = [](Engine* engine) {
    return engine->Run<int64_t, double, int64_t, double>(
        "parity-oom", 40000,
        [](int64_t i, ShuffleEmitter<int64_t, double>* em) {
          em->Emit(i % 97, 1.0);
        },
        [](const int64_t& key, std::vector<double>& values,
           OutputEmitter<int64_t, double>* out) {
          out->Emit(key, static_cast<double>(values.size()));
        });
  };
  Engine inprocess(config);
  Engine subprocess(WithSubprocessBackend(config, 2));
  for (Engine* engine : {&inprocess, &subprocess}) {
    auto result = run(engine);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsResourceExhausted())
        << result.status().ToString();
    ASSERT_EQ(engine->pipeline().jobs.size(), 1u);
    EXPECT_EQ(engine->pipeline().jobs[0].failure, "oom");
    EXPECT_EQ(engine->memory().used(), 0u);
  }
  // The known divergence: an in-process task stops at its first chunk the
  // budget cannot take (4 tasks x 4,096 records), while the workers run
  // unmetered and the coordinator charges all 40,000 after the map phase.
  EXPECT_EQ(inprocess.pipeline().jobs[0].pre_combine_records, 4 * 4096);
  EXPECT_EQ(subprocess.pipeline().jobs[0].pre_combine_records, 40000);
}

// ---------------------------------------------------------------------------
// Four-driver bit-identity (the PR's acceptance gate).
// ---------------------------------------------------------------------------

TEST(DistributedBackendBitIdentity, ParafacAls) {
  Rng rng(7201);
  SparseTensor x =
      haten2::testing::RandomSparseTensor({14, 11, 9}, 280, &rng);
  Haten2Options options;
  options.max_iterations = 3;
  options.tolerance = 0.0;

  Engine reference(BaseConfig());
  Result<KruskalModel> want = Haten2ParafacAls(&reference, x, 3, options);
  ASSERT_OK(want.status());

  Engine engine(WithSubprocessBackend(BaseConfig(), 2));
  Result<KruskalModel> got = Haten2ParafacAls(&engine, x, 3, options);
  ASSERT_OK(got.status());
  EXPECT_EQ(got->lambda, want->lambda);
  EXPECT_EQ(got->fit_history, want->fit_history);
  EXPECT_DOUBLE_EQ(got->fit, want->fit);
  for (size_t m = 0; m < 3; ++m) {
    EXPECT_DOUBLE_EQ(got->factors[m].MaxAbsDiff(want->factors[m]), 0.0);
  }
}

TEST(DistributedBackendBitIdentity, TuckerAls) {
  Rng rng(7202);
  SparseTensor x =
      haten2::testing::RandomSparseTensor({12, 10, 8}, 240, &rng);
  Haten2Options options;
  options.max_iterations = 2;
  options.tolerance = 0.0;

  Engine reference(BaseConfig());
  Result<TuckerModel> want =
      Haten2TuckerAls(&reference, x, {3, 3, 2}, options);
  ASSERT_OK(want.status());

  Engine engine(WithSubprocessBackend(BaseConfig(), 2));
  Result<TuckerModel> got = Haten2TuckerAls(&engine, x, {3, 3, 2}, options);
  ASSERT_OK(got.status());
  EXPECT_DOUBLE_EQ(got->fit, want->fit);
  EXPECT_DOUBLE_EQ(got->core.MaxAbsDiff(want->core), 0.0);
  for (size_t m = 0; m < 3; ++m) {
    EXPECT_DOUBLE_EQ(got->factors[m].MaxAbsDiff(want->factors[m]), 0.0);
  }
}

TEST(DistributedBackendBitIdentity, NonnegativeTuckerAls) {
  Rng rng(7203);
  SparseTensor x =
      haten2::testing::RandomSparseTensor({10, 9, 8}, 220, &rng);
  Haten2Options options;
  options.max_iterations = 2;
  options.tolerance = 0.0;

  Engine reference(BaseConfig());
  Result<TuckerModel> want =
      Haten2NonnegativeTuckerAls(&reference, x, {2, 2, 2}, options);
  ASSERT_OK(want.status());

  Engine engine(WithSubprocessBackend(BaseConfig(), 2));
  Result<TuckerModel> got =
      Haten2NonnegativeTuckerAls(&engine, x, {2, 2, 2}, options);
  ASSERT_OK(got.status());
  EXPECT_DOUBLE_EQ(got->fit, want->fit);
  EXPECT_DOUBLE_EQ(got->core.MaxAbsDiff(want->core), 0.0);
  for (size_t m = 0; m < 3; ++m) {
    EXPECT_DOUBLE_EQ(got->factors[m].MaxAbsDiff(want->factors[m]), 0.0);
  }
}

TEST(DistributedBackendBitIdentity, ParafacMissingValues) {
  Rng rng(7204);
  SparseTensor x =
      haten2::testing::RandomSparseTensor({9, 8, 7}, 180, &rng);
  // Observe exactly x's nonzero pattern (mask values must be 1.0).
  Result<SparseTensor> mask_r = SparseTensor::Create(x.dims());
  ASSERT_OK(mask_r.status());
  SparseTensor mask = std::move(mask_r).value();
  for (int64_t e = 0; e < x.nnz(); ++e) {
    int64_t idx[3] = {x.index(e, 0), x.index(e, 1), x.index(e, 2)};
    mask.AppendUnchecked(idx, 1.0);
  }
  mask.Canonicalize();

  MissingValueOptions options;
  options.em_iterations = 2;
  options.em_tolerance = 0.0;
  options.base.max_iterations = 1;
  options.base.tolerance = 0.0;

  Engine reference(BaseConfig());
  Result<MissingValueModel> want =
      Haten2ParafacMissing(&reference, x, mask, 2, options);
  ASSERT_OK(want.status());

  Engine engine(WithSubprocessBackend(BaseConfig(), 2));
  Result<MissingValueModel> got =
      Haten2ParafacMissing(&engine, x, mask, 2, options);
  ASSERT_OK(got.status());
  EXPECT_DOUBLE_EQ(got->observed_fit, want->observed_fit);
  EXPECT_EQ(got->observed_fit_history, want->observed_fit_history);
  EXPECT_EQ(got->model.lambda, want->model.lambda);
  for (size_t m = 0; m < 3; ++m) {
    EXPECT_DOUBLE_EQ(got->model.factors[m].MaxAbsDiff(want->model.factors[m]),
                     0.0);
  }
}

// ---------------------------------------------------------------------------
// Worker death: kAborted/"worker_lost", node retry, stats-v6 counters.
// ---------------------------------------------------------------------------

TEST(DistributedBackendTest, WorkerKillSurfacesAsAbortedWorkerLost) {
  ClusterConfig config = WithSubprocessBackend(BaseConfig(), 2);
  config.inject_worker_kill_after_tasks = 1;
  Engine engine(config);
  auto result = RunSumJob(&engine);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsAborted()) << result.status().ToString();
  ASSERT_FALSE(engine.pipeline().jobs.empty());
  EXPECT_EQ(engine.pipeline().jobs.back().failure, "worker_lost");
}

TEST(DistributedBackendTest, WorkerKillRecoversViaNodeRetry) {
  // Reference: clean subprocess run of the same plan.
  std::vector<std::pair<int64_t, double>> want;
  {
    Engine engine(WithSubprocessBackend(BaseConfig(), 2));
    auto r = RunSumJob(&engine);
    ASSERT_OK(r.status());
    want = *r;
  }

  ClusterConfig config = WithSubprocessBackend(BaseConfig(), 2);
  config.inject_worker_kill_after_tasks = 1;  // first gang loses a worker
  config.max_node_attempts = 3;
  Engine engine(config);

  std::vector<std::pair<int64_t, double>> got;
  Plan plan("kill-recovery");
  plan.AddJob("sum-under-retry", {}, [&engine, &got]() -> Status {
    auto r = RunSumJob(&engine);
    if (!r.ok()) return r.status();
    got = *r;  // fresh job ids per attempt; last attempt's output wins
    return Status::OK();
  });
  ASSERT_OK(PlanScheduler(&engine).Execute(plan));

  // Bit-identical to the clean run despite the mid-job worker death.
  EXPECT_EQ(got, want);

  PipelineStats pipeline = engine.PipelineSnapshot();
  // First attempt's job failed as worker_lost; the retry's job succeeded
  // under a fresh job id.
  EXPECT_GE(pipeline.NumFailedJobs(), 1);
  bool saw_worker_lost = false;
  for (const JobStats& job : pipeline.jobs) {
    if (job.failure == "worker_lost") saw_worker_lost = true;
  }
  EXPECT_TRUE(saw_worker_lost);
  ASSERT_EQ(pipeline.plans.size(), 1u);
  EXPECT_EQ(pipeline.plans[0].nodes[0].attempts, 2);
  EXPECT_EQ(pipeline.plans[0].nodes[0].status, "ok");
  EXPECT_EQ(pipeline.TotalNodeRetries(), 1);

  // The killed slot was respawned for the retry gang.
  const std::vector<WorkerStats> workers = engine.WorkerStatsSnapshot();
  int64_t restarts = 0;
  for (const WorkerStats& w : workers) restarts += w.restarts;
  EXPECT_GE(restarts, 1);

  // All of it lands in the stats-v6 JSON export.
  StatsReport report;
  report.tool = "distributed_backend_test";
  report.cluster = &config;
  report.pipeline = &pipeline;
  report.workers = &workers;
  const std::string json = StatsReportToJson(report);
  EXPECT_NE(json.find("\"haten2-stats-v10\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"backend\":\"subprocess\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"workers\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"restarts\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"worker_lost\""), std::string::npos) << json;
}

TEST(DistributedBackendTest, KillInjectionLatchesOffAfterFirstDeath) {
  // A second direct Run on the same engine (same pool) must run clean: the
  // injection is one-shot, which is what lets the node retry converge.
  ClusterConfig config = WithSubprocessBackend(BaseConfig(), 2);
  config.inject_worker_kill_after_tasks = 1;
  Engine engine(config);
  ASSERT_FALSE(RunSumJob(&engine).ok());
  auto second = RunSumJob(&engine);
  ASSERT_OK(second.status());

  Engine reference(BaseConfig());
  auto want = RunSumJob(&reference);
  ASSERT_OK(want.status());
  EXPECT_EQ(*second, *want);
}

}  // namespace
}  // namespace haten2
