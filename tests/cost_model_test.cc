// Tests for the CostModel's job and pipeline simulation: the pinned value of
// one job, LPT scheduling properties, the per-attempt retry accounting (CPU
// per attempt), and a pipeline total that does not depend on the order
// concurrent plan nodes finished in.

#include "mapreduce/cost_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "mapreduce/engine.h"
#include "mapreduce/plan.h"
#include "mapreduce/scheduler.h"
#include "test_util.h"
#include "util/random.h"

namespace haten2 {
namespace {

TEST(CostModelSim, SimulateJobMatchesLegacyFormulaOnUniformCluster) {
  // A job with loaded map tasks and reduce partitions, no retries, on the
  // paper defaults (40 machines, 4+4 slots). The literal is the value the
  // cost model computed for this job before the map-side disk term went:
  // the simulated seconds must not move by a bit.
  JobStats job;
  job.map_output_bytes = 1 << 26;
  job.map_task_records = {100000, 250000, 50000, 900000, 1};
  job.reduce_partition_records = {400000, 100, 800000};
  job.reduce_partition_bytes = {1u << 22, 1u << 10, 1u << 23};
  EXPECT_EQ(CostModel(ClusterConfig()).SimulateJob(job), 9.7587202560000001);
}

// ---------------------------------------------------------------------------
// Scheduling properties.
// ---------------------------------------------------------------------------

TEST(CostModelProperty, MakespanBounds) {
  Rng rng(21);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> costs;
    int n = static_cast<int>(rng.UniformInt(int64_t{1}, int64_t{100}));
    for (int i = 0; i < n; ++i) costs.push_back(rng.Uniform(0.0, 10.0));
    int slots = 5 * 3;
    double sim = CostModel::Makespan(costs, slots);
    double max_task = *std::max_element(costs.begin(), costs.end());
    double total = std::accumulate(costs.begin(), costs.end(), 0.0);
    EXPECT_GE(sim, max_task - 1e-12);          // no task splits
    EXPECT_GE(sim, total / slots - 1e-9);      // perfect balance at best
    EXPECT_LE(sim, total + 1e-9);              // never worse than serial
  }
}

TEST(CostModelProperty, UniformTasksScheduleExactly) {
  // N identical tasks of cost c on S slots finish in ceil(N/S) waves.
  const double c = 2.5;
  for (int n : {1, 4, 8, 9, 23}) {
    std::vector<double> costs(static_cast<size_t>(n), c);
    double sim = CostModel::Makespan(costs, 4 * 2);
    double waves = static_cast<double>((n + 7) / 8);  // S = 4 machines x 2
    EXPECT_DOUBLE_EQ(sim, waves * c) << n << " tasks";
  }
}

// ---------------------------------------------------------------------------
// Retry accounting: re-execution CPU per attempt.
// ---------------------------------------------------------------------------

TEST(CostModelRetry, ChargesCpuPerAttempt) {
  ClusterConfig config;
  config.num_machines = 1;
  config.map_slots_per_machine = 1;
  config.job_startup_seconds = 0.0;
  // One map task: 1.0 s of CPU (1M records at 1 us).
  JobStats job;
  job.map_task_records = {1000000};
  job.map_task_attempts = {3};
  // 3 attempts x 1.0 s CPU.
  EXPECT_DOUBLE_EQ(CostModel(config).SimulateJob(job), 3.0);
}

TEST(CostModelRetry, FailureInjectionMovesOnlyCpuCost) {
  // End-to-end: the same workload run with and without failure injection.
  // With zero per-record CPU the two simulate equal, because retries may
  // only ever move CPU; with CPU on, the flaky run is slower.
  auto run = [](double failure_prob) {
    ClusterConfig config = ClusterConfig::ForTesting();
    config.task_failure_probability = failure_prob;
    config.max_task_attempts = 10;  // keep the flaky run from aborting
    Engine engine(config);
    auto result = engine.Run<int64_t, int64_t, int64_t, int64_t>(
        "flaky", 4096,
        [](int64_t i, ShuffleEmitter<int64_t, int64_t>* em) {
          em->Emit(i % 64, i);
        },
        [](const int64_t& k, std::vector<int64_t>& vs,
           OutputEmitter<int64_t, int64_t>* out) {
          out->Emit(k, static_cast<int64_t>(vs.size()));
        });
    EXPECT_OK(result.status());
    return engine.pipeline().jobs[0];
  };
  JobStats clean = run(0.0);
  JobStats flaky = run(0.5);
  ASSERT_GT(flaky.map_task_retries, 0) << "injection never fired";

  ClusterConfig sim_config;
  sim_config.map_seconds_per_record = 0.0;
  sim_config.reduce_seconds_per_record = 0.0;
  CostModel model(sim_config);
  EXPECT_EQ(model.SimulateJob(clean), model.SimulateJob(flaky));
  // With CPU costs on, the flaky run is strictly slower (re-executed CPU).
  ClusterConfig cpu_config;
  EXPECT_GT(CostModel(cpu_config).SimulateJob(flaky),
            CostModel(cpu_config).SimulateJob(clean));
}

// ---------------------------------------------------------------------------
// Pipeline totals.
// ---------------------------------------------------------------------------

TEST(CostModelPipeline, SumIsIndependentOfCompletionOrder) {
  // Three plan nodes run jobs of 0.1, 0.2 and 0.3 simulated seconds
  // (startup 0, one map task of 1/2/3 records at 0.1 s each, nothing
  // shuffled). A float sum of those depends on its order: 0.1 + 0.2 + 0.3
  // != 0.3 + 0.2 + 0.1 in the last bit. The nodes sleep so that their jobs
  // tend to finish in reverse; whatever the order, the engine logs them in
  // job-id order, so the pipeline total is the id-order sum.
  ClusterConfig config;
  config.num_machines = 1;
  config.map_slots_per_machine = 1;
  config.reduce_slots_per_machine = 1;
  config.job_startup_seconds = 0.0;
  config.map_seconds_per_record = 0.1;
  Engine engine(config);
  Plan plan("reverse-finish");
  for (int i = 0; i < 3; ++i) {
    plan.AddJob("n", {}, [&engine, i]() -> Status {
      std::this_thread::sleep_for(std::chrono::milliseconds(20 * (2 - i)));
      return engine
          .Run<int64_t, int64_t, int64_t, int64_t>(
              "job", i + 1, [](int64_t, ShuffleEmitter<int64_t, int64_t>*) {},
              [](const int64_t&, std::vector<int64_t>&,
                 OutputEmitter<int64_t, int64_t>*) {})
          .status();
    });
  }
  ASSERT_OK(PlanScheduler(&engine, /*max_concurrent=*/3).Execute(plan));

  PipelineStats pipeline = engine.PipelineSnapshot();
  ASSERT_EQ(pipeline.jobs.size(), 3u);
  CostModel model(config);
  double in_id_order = 0.0;
  for (int i = 0; i < 3; ++i) {
    const JobStats& job = pipeline.jobs[static_cast<size_t>(i)];
    EXPECT_EQ(job.job_id, i);
    EXPECT_EQ(job.map_task_records, std::vector<int64_t>{i + 1});
    in_id_order += model.SimulateJob(job);
  }
  // The costs must be order-sensitive, or the check below proves nothing.
  ASSERT_NE(model.SimulateJob(pipeline.jobs[2]) +
                model.SimulateJob(pipeline.jobs[1]) +
                model.SimulateJob(pipeline.jobs[0]),
            in_id_order);
  EXPECT_EQ(model.SimulatePipeline(pipeline), in_id_order);
}

}  // namespace
}  // namespace haten2
