// Multi-threaded Engine::Run stress tests: concurrent jobs (issued both
// directly from external threads and through plan submission) must record
// intact per-job statistics and preserve the byte-accounting invariants the
// o.o.m. semantics rest on.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>
#include <vector>

#include "mapreduce/engine.h"
#include "mapreduce/plan.h"
#include "mapreduce/scheduler.h"
#include "test_util.h"

namespace haten2 {
namespace {

using Record = std::pair<int64_t, int64_t>;

/// Word-count over `i % modulus`; the exact result and record counts are
/// known in closed form.
Status RunCount(Engine* engine, const std::string& name, int64_t records,
                int64_t modulus,
                std::map<int64_t, int64_t>* histogram = nullptr) {
  auto result = engine->Run<int64_t, int64_t, int64_t, int64_t>(
      name, records,
      [modulus](int64_t i, ShuffleEmitter<int64_t, int64_t>* em) {
        em->Emit(i % modulus, 1);
      },
      [](const int64_t& k, std::vector<int64_t>& vs,
         OutputEmitter<int64_t, int64_t>* out) {
        int64_t sum = 0;
        for (int64_t v : vs) sum += v;
        out->Emit(k, sum);
      });
  if (!result.ok()) return result.status();
  if (histogram != nullptr) {
    for (auto& [k, v] : *result) (*histogram)[k] += v;
  }
  return Status::OK();
}

TEST(EngineConcurrency, ParallelDirectRunsKeepStatsApart) {
  Engine engine(ClusterConfig::ForTesting());

  constexpr int kThreads = 4;
  constexpr int kJobsPerThread = 6;
  constexpr int64_t kRecords = 4000;
  constexpr int64_t kModulus = 17;
  std::vector<std::map<int64_t, int64_t>> histograms(kThreads);
  std::vector<Status> statuses(kThreads, Status::OK());
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int j = 0; j < kJobsPerThread; ++j) {
        Status s = RunCount(&engine, "stress", kRecords, kModulus,
                            &histograms[static_cast<size_t>(t)]);
        if (!s.ok()) {
          statuses[static_cast<size_t>(t)] = s;
          return;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (const Status& s : statuses) ASSERT_OK(s);

  // Every job got the right answer: each thread's accumulated histogram is
  // kJobsPerThread times the single-job histogram.
  for (const auto& histogram : histograms) {
    int64_t total = 0;
    for (const auto& [word, count] : histogram) {
      EXPECT_EQ(count, kJobsPerThread * (kRecords / kModulus +
                                         (word < kRecords % kModulus)));
      total += count;
    }
    EXPECT_EQ(total, kJobsPerThread * kRecords);
  }

  PipelineStats pipeline = engine.PipelineSnapshot();
  ASSERT_EQ(pipeline.NumJobs(), kThreads * kJobsPerThread);
  EXPECT_EQ(pipeline.NumFailedJobs(), 0);

  // Per-job stats are intact (no cross-job bleed), job ids unique — the
  // uniqueness is what keys each job's failure-injection draws.
  std::set<int64_t> ids;
  for (const JobStats& job : pipeline.jobs) {
    ids.insert(job.job_id);
    EXPECT_EQ(job.map_input_records, kRecords);
    EXPECT_EQ(job.map_output_records, kRecords);
    // Byte accounting: bytes are records times the record width, and what
    // the reducers received equals what the mappers shuffled.
    EXPECT_EQ(job.map_output_bytes,
              static_cast<uint64_t>(job.map_output_records) * sizeof(Record));
    int64_t received = 0;
    uint64_t received_bytes = 0;
    for (int64_t r : job.reduce_partition_records) received += r;
    for (uint64_t b : job.reduce_partition_bytes) received_bytes += b;
    EXPECT_EQ(received, job.map_output_records);
    EXPECT_EQ(received_bytes, job.map_output_bytes);
  }
  EXPECT_EQ(ids.size(), static_cast<size_t>(kThreads * kJobsPerThread));

  // The budget was released.
  EXPECT_EQ(engine.memory().used(), 0u);
}

TEST(EngineConcurrency, PlanSubmissionStressKeepsPerNodeAttribution) {
  ClusterConfig config = ClusterConfig::ForTesting();
  config.max_concurrent_jobs = 4;
  Engine engine(config);

  constexpr int kNodes = 12;
  constexpr int64_t kRecords = 3000;
  Plan plan("stress-plan");
  for (int i = 0; i < kNodes; ++i) {
    plan.AddJob("count", {}, [&engine] {
      return RunCount(&engine, "plan-job", kRecords, 13);
    });
  }
  ASSERT_OK(PlanScheduler(&engine).Execute(plan));

  PipelineStats pipeline = engine.PipelineSnapshot();
  ASSERT_EQ(pipeline.NumJobs(), kNodes);
  ASSERT_EQ(pipeline.plans.size(), 1u);
  const PlanStats& stats = pipeline.plans[0];
  EXPECT_EQ(stats.concurrency_limit, 4);
  EXPECT_GT(stats.max_observed_concurrency, 1);

  // Every node issued exactly one job; collectively they own every job in
  // the log exactly once, each tagged with the plan.
  std::set<int64_t> node_job_ids;
  for (const PlanNodeStats& node : stats.nodes) {
    EXPECT_EQ(node.status, "ok");
    ASSERT_EQ(node.job_ids.size(), 1u);
    node_job_ids.insert(node.job_ids[0]);
  }
  EXPECT_EQ(node_job_ids.size(), static_cast<size_t>(kNodes));
  for (const JobStats& job : pipeline.jobs) {
    EXPECT_EQ(job.plan_id, stats.plan_id);
    EXPECT_EQ(node_job_ids.count(job.job_id), 1u);
    EXPECT_EQ(job.map_output_records, kRecords);
  }
  EXPECT_EQ(engine.memory().used(), 0u);
}

TEST(EngineConcurrency, ClearPipelineIsSafeWhileJobsRun) {
  Engine engine(ClusterConfig::ForTesting());
  std::atomic<bool> stop{false};
  std::thread runner([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_OK(RunCount(&engine, "churn", 500, 7));
    }
  });
  // Snapshots and clears race the runner; under TSan this is the regression
  // test for the unlocked ClearPipeline data race.
  for (int i = 0; i < 50; ++i) {
    PipelineStats snapshot = engine.PipelineSnapshot();
    for (const JobStats& job : snapshot.jobs) {
      EXPECT_EQ(job.map_input_records, 500);
    }
    engine.ClearPipeline();
  }
  stop.store(true, std::memory_order_relaxed);
  runner.join();
}

}  // namespace
}  // namespace haten2
