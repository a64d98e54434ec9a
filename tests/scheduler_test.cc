// Tests for the dataflow plan layer: Plan construction (DAG-by-construction
// and builder poisoning), PlanScheduler ordering and failure propagation,
// plan statistics (observed concurrency, critical path vs total work), and
// the iteration-invariant input-scan cache counters.

#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "core/contract.h"
#include "mapreduce/engine.h"
#include "mapreduce/plan.h"
#include "mapreduce/scheduler.h"
#include "test_util.h"

namespace haten2 {
namespace {

using haten2::testing::RandomSparseTensor;

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Appends `index` to `order` under `mu` and returns OK.
std::function<Status()> Recording(std::mutex* mu, std::vector<int>* order,
                                  int index, int sleep_ms = 0) {
  return [mu, order, index, sleep_ms]() -> Status {
    if (sleep_ms > 0) SleepMs(sleep_ms);
    std::lock_guard<std::mutex> lock(*mu);
    order->push_back(index);
    return Status::OK();
  };
}

TEST(Plan, AddJobReturnsIndicesAndKeepsNodes) {
  Plan plan("p");
  EXPECT_TRUE(plan.empty());
  int a = plan.AddJob("a", {}, [] { return Status::OK(); });
  int b = plan.AddJob("b", {a}, [] { return Status::OK(); });
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(plan.size(), 2);
  EXPECT_OK(plan.build_status());
  EXPECT_EQ(plan.nodes()[1].deps, std::vector<int>{0});
}

TEST(Plan, ForwardDependencyPoisonsBuild) {
  Plan plan("bad");
  int a = plan.AddJob("a", {1}, [] { return Status::OK(); });  // forward
  EXPECT_EQ(a, -1);
  EXPECT_FALSE(plan.build_status().ok());

  Engine engine(ClusterConfig::ForTesting());
  PlanScheduler scheduler(&engine);
  Status status = scheduler.Execute(plan);
  EXPECT_FALSE(status.ok());
  // Nothing ran and nothing was recorded.
  EXPECT_EQ(engine.PipelineSnapshot().plans.size(), 0u);
}

TEST(Plan, NegativeDependencyPoisonsBuild) {
  Plan plan("bad");
  plan.AddJob("a", {}, [] { return Status::OK(); });
  int b = plan.AddJob("b", {-1}, [] { return Status::OK(); });
  EXPECT_EQ(b, -1);
  EXPECT_FALSE(plan.build_status().ok());
}

TEST(Plan, AddProducerMovesValueIntoSlot) {
  Plan plan("producer");
  std::vector<int> slot;
  int a = plan.AddProducer<std::vector<int>>(
      "make", {}, []() -> Result<std::vector<int>> {
        return std::vector<int>{1, 2, 3};
      },
      &slot);
  plan.AddJob("check", {a}, [&slot]() -> Status {
    return slot.size() == 3 ? Status::OK()
                            : Status::Internal("slot not filled");
  });
  Engine engine(ClusterConfig::ForTesting());
  EXPECT_OK(PlanScheduler(&engine).Execute(plan));
  EXPECT_EQ(slot, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, EmptyPlanIsOkAndRecordsNothing) {
  Engine engine(ClusterConfig::ForTesting());
  Plan plan("empty");
  EXPECT_OK(PlanScheduler(&engine).Execute(plan));
  EXPECT_EQ(engine.PipelineSnapshot().plans.size(), 0u);
}

TEST(Scheduler, SerialCapExecutesInNodeIndexOrder) {
  Engine engine(ClusterConfig::ForTesting());
  std::mutex mu;
  std::vector<int> order;
  Plan plan("serial");
  // Independent nodes: only the cap-1 rule forces index order.
  for (int i = 0; i < 5; ++i) {
    plan.AddJob("n", {}, Recording(&mu, &order, i));
  }
  PlanScheduler scheduler(&engine, /*max_concurrent=*/1);
  ASSERT_OK(scheduler.Execute(plan));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));

  PipelineStats pipeline = engine.PipelineSnapshot();
  ASSERT_EQ(pipeline.plans.size(), 1u);
  const PlanStats& stats = pipeline.plans[0];
  EXPECT_EQ(stats.name, "serial");
  EXPECT_EQ(stats.concurrency_limit, 1);
  EXPECT_EQ(stats.max_observed_concurrency, 1);
  for (const PlanNodeStats& node : stats.nodes) {
    EXPECT_EQ(node.status, "ok");
  }
}

TEST(Scheduler, ConcurrentRespectsDependencies) {
  Engine engine(ClusterConfig::ForTesting());
  std::mutex mu;
  std::vector<int> order;
  // Diamond: 0 -> {1, 2} -> 3. Whatever the interleaving of 1 and 2, node 0
  // runs first and node 3 last.
  Plan plan("diamond");
  int a = plan.AddJob("src", {}, Recording(&mu, &order, 0));
  int b = plan.AddJob("left", {a}, Recording(&mu, &order, 1, /*sleep=*/5));
  int c = plan.AddJob("right", {a}, Recording(&mu, &order, 2, /*sleep=*/5));
  plan.AddJob("sink", {b, c}, Recording(&mu, &order, 3));
  PlanScheduler scheduler(&engine, /*max_concurrent=*/4);
  ASSERT_OK(scheduler.Execute(plan));
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), 0);
  EXPECT_EQ(order.back(), 3);
}

TEST(Scheduler, ObservedConcurrencyAndCriticalPath) {
  Engine engine(ClusterConfig::ForTesting());
  std::mutex mu;
  std::vector<int> order;
  // Two independent 40 ms nodes plus a join: with cap 2 both run at once,
  // so the critical path (one branch + join) is strictly shorter than the
  // serialized node-seconds total.
  Plan plan("fork-join");
  int a = plan.AddJob("a", {}, Recording(&mu, &order, 0, /*sleep=*/40));
  int b = plan.AddJob("b", {}, Recording(&mu, &order, 1, /*sleep=*/40));
  plan.AddJob("join", {a, b}, Recording(&mu, &order, 2, /*sleep=*/10));
  PlanScheduler scheduler(&engine, /*max_concurrent=*/2);
  ASSERT_OK(scheduler.Execute(plan));

  PipelineStats pipeline = engine.PipelineSnapshot();
  ASSERT_EQ(pipeline.plans.size(), 1u);
  const PlanStats& stats = pipeline.plans[0];
  EXPECT_EQ(stats.concurrency_limit, 2);
  EXPECT_EQ(stats.max_observed_concurrency, 2);
  EXPECT_GT(stats.total_node_seconds, 0.0);
  EXPECT_LT(stats.critical_path_seconds, stats.total_node_seconds);
  // No node retried, so the backoff-inclusive path equals the pure one.
  EXPECT_EQ(stats.total_node_retries, 0);
  EXPECT_EQ(stats.critical_path_with_backoff_seconds,
            stats.critical_path_seconds);
  // Pipeline-level aggregates see the same numbers.
  EXPECT_EQ(pipeline.MaxScheduledConcurrency(), 2);
  EXPECT_LT(pipeline.TotalCriticalPathSeconds(),
            pipeline.TotalPlanNodeSeconds());
  EXPECT_EQ(pipeline.TotalCriticalPathWithBackoffSeconds(),
            pipeline.TotalCriticalPathSeconds());
}

TEST(Scheduler, CriticalPathWithBackoffChargesRetriedNodes) {
  // A node that fails transiently once serves one simulated backoff wait
  // before succeeding. The pure critical path reports only executor time
  // (what the scheduler actually slept); the backoff-inclusive variant adds
  // the wait, reconciling with CostModel::SimulatePipeline's serial charge.
  ClusterConfig config = ClusterConfig::ForTesting();
  config.max_node_attempts = 3;
  config.node_backoff_base_seconds = 5.0;
  config.node_backoff_cap_seconds = 60.0;
  Engine engine(config);
  Plan plan("retrying");
  int tries = 0;
  plan.AddJob("flaky", {}, [&tries]() -> Status {
    return (++tries < 2) ? Status::IOError("transient") : Status::OK();
  });
  ASSERT_OK(PlanScheduler(&engine).Execute(plan));
  EXPECT_EQ(tries, 2);

  PipelineStats pipeline = engine.PipelineSnapshot();
  ASSERT_EQ(pipeline.plans.size(), 1u);
  const PlanStats& stats = pipeline.plans[0];
  EXPECT_EQ(stats.total_node_retries, 1);
  EXPECT_EQ(stats.total_backoff_seconds, 5.0);
  EXPECT_EQ(stats.critical_path_with_backoff_seconds,
            stats.critical_path_seconds + 5.0);
  EXPECT_EQ(pipeline.TotalCriticalPathWithBackoffSeconds(),
            pipeline.TotalCriticalPathSeconds() + 5.0);
}

TEST(Scheduler, SerialFailureSkipsEverythingAfter) {
  Engine engine(ClusterConfig::ForTesting());
  std::mutex mu;
  std::vector<int> order;
  Plan plan("failing");
  plan.AddJob("ok", {}, Recording(&mu, &order, 0));
  plan.AddJob("boom", {}, [] { return Status::Internal("boom"); });
  plan.AddJob("dependent", {1}, Recording(&mu, &order, 2));
  plan.AddJob("independent", {}, Recording(&mu, &order, 3));
  Status status = PlanScheduler(&engine, 1).Execute(plan);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("boom"), std::string::npos);
  // Nothing after the failure started, dependent or not.
  EXPECT_EQ(order, std::vector<int>{0});

  PipelineStats pipeline = engine.PipelineSnapshot();
  ASSERT_EQ(pipeline.plans.size(), 1u);
  const PlanStats& stats = pipeline.plans[0];
  EXPECT_TRUE(stats.failed());
  EXPECT_EQ(stats.nodes[0].status, "ok");
  EXPECT_EQ(stats.nodes[1].status, "failed");
  EXPECT_EQ(stats.nodes[2].status, "skipped");
  EXPECT_EQ(stats.nodes[3].status, "skipped");
}

TEST(Scheduler, ConcurrentFailureLetsRunningNodesFinish) {
  Engine engine(ClusterConfig::ForTesting());
  std::mutex mu;
  std::vector<int> order;
  Plan plan("failing-concurrent");
  // Node 0 is mid-flight when node 1 fails; it must still complete "ok".
  plan.AddJob("slow", {}, Recording(&mu, &order, 0, /*sleep=*/30));
  plan.AddJob("boom", {}, [] { return Status::Internal("boom"); });
  plan.AddJob("after-slow", {0}, Recording(&mu, &order, 2));
  Status status = PlanScheduler(&engine, 2).Execute(plan);
  EXPECT_FALSE(status.ok());

  PipelineStats pipeline = engine.PipelineSnapshot();
  ASSERT_EQ(pipeline.plans.size(), 1u);
  const PlanStats& stats = pipeline.plans[0];
  EXPECT_EQ(stats.nodes[0].status, "ok");
  EXPECT_EQ(stats.nodes[1].status, "failed");
  EXPECT_EQ(stats.nodes[2].status, "skipped");
  EXPECT_EQ(order, std::vector<int>{0});
}

TEST(Scheduler, EngineJobsAreTaggedWithPlanAndNode) {
  ClusterConfig config = ClusterConfig::ForTesting();
  Engine engine(config);
  auto run_job = [&engine](const std::string& name) -> Status {
    return engine
        .Run<int64_t, int64_t, int64_t, int64_t>(
            name, 100,
            [](int64_t i, ShuffleEmitter<int64_t, int64_t>* em) {
              em->Emit(i % 7, 1);
            },
            [](const int64_t& k, std::vector<int64_t>& vs,
               OutputEmitter<int64_t, int64_t>* out) {
              int64_t sum = 0;
              for (int64_t v : vs) sum += v;
              out->Emit(k, sum);
            })
        .status();
  };
  Plan plan("two-jobs");
  plan.AddJob("left", {}, [&] { return run_job("left"); });
  plan.AddJob("right", {}, [&] { return run_job("right"); });
  ASSERT_OK(PlanScheduler(&engine, 2).Execute(plan));

  PipelineStats pipeline = engine.PipelineSnapshot();
  ASSERT_EQ(pipeline.plans.size(), 1u);
  const PlanStats& stats = pipeline.plans[0];
  ASSERT_EQ(pipeline.jobs.size(), 2u);
  for (const JobStats& job : pipeline.jobs) {
    EXPECT_EQ(job.plan_id, stats.plan_id);
  }
  // Each node owns exactly the job it issued.
  ASSERT_EQ(stats.nodes[0].job_ids.size(), 1u);
  ASSERT_EQ(stats.nodes[1].job_ids.size(), 1u);
  EXPECT_NE(stats.nodes[0].job_ids[0], stats.nodes[1].job_ids[0]);
  // A job run outside any plan stays untagged.
  ASSERT_OK(run_job("direct"));
  pipeline = engine.PipelineSnapshot();
  EXPECT_EQ(pipeline.jobs.back().plan_id, -1);
}

TEST(Scheduler, PipelineSinceFiltersByJobIdWatermark) {
  Engine engine(ClusterConfig::ForTesting());
  auto run_job = [&engine](const std::string& name) -> Status {
    return engine
        .Run<int64_t, int64_t, int64_t, int64_t>(
            name, 10,
            [](int64_t i, ShuffleEmitter<int64_t, int64_t>* em) {
              em->Emit(i, 1);
            },
            [](const int64_t& k, std::vector<int64_t>& vs,
               OutputEmitter<int64_t, int64_t>* out) { out->Emit(k, 1); })
        .status();
  };
  ASSERT_OK(run_job("before"));
  const int64_t watermark = engine.NextJobId();
  ASSERT_OK(run_job("after"));
  PipelineStats since = engine.PipelineSince(watermark, engine.NextPlanId());
  ASSERT_EQ(since.jobs.size(), 1u);
  EXPECT_EQ(since.jobs[0].name, "after");
  EXPECT_GE(since.jobs[0].job_id, watermark);
}

TEST(Scheduler, InvariantCacheCountsHitsAndMisses) {
  Rng rng(4711);
  SparseTensor x = RandomSparseTensor({12, 10, 8}, 150, &rng);
  DenseMatrix b = DenseMatrix::RandomUniform(10, 3, &rng);
  DenseMatrix c = DenseMatrix::RandomUniform(8, 3, &rng);
  std::vector<const DenseMatrix*> factors = {nullptr, &b, &c};
  Engine engine(ClusterConfig::ForTesting());
  ContractCache cache;
  // DNN decodes the input tensor once per evaluation; the second evaluation
  // of the same tensor must reuse the decoded records.
  ASSERT_OK(MultiModeContract(&engine, x, factors, 0, MergeKind::kCross,
                              Variant::kDnn, &cache)
                .status());
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 0);
  ASSERT_OK(MultiModeContract(&engine, x, factors, 0, MergeKind::kCross,
                              Variant::kDnn, &cache)
                .status());
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 1);

  PipelineStats pipeline = engine.PipelineSnapshot();
  EXPECT_EQ(pipeline.invariant_cache_misses, 1);
  EXPECT_EQ(pipeline.invariant_cache_hits, 1);

  // A different tensor through the same cache re-scans.
  SparseTensor y = RandomSparseTensor({12, 10, 8}, 170, &rng);
  ASSERT_OK(MultiModeContract(&engine, y, factors, 0, MergeKind::kCross,
                              Variant::kDnn, &cache)
                .status());
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_EQ(cache.hits(), 1);
}

TEST(Scheduler, ContractIsIdenticalSerialAndConcurrent) {
  Rng rng(99);
  SparseTensor x = RandomSparseTensor({20, 16, 12}, 400, &rng);
  DenseMatrix b = DenseMatrix::RandomUniform(16, 4, &rng);
  DenseMatrix c = DenseMatrix::RandomUniform(12, 4, &rng);
  std::vector<const DenseMatrix*> factors = {nullptr, &b, &c};
  for (Variant v : kAllVariants) {
    for (MergeKind kind : {MergeKind::kCross, MergeKind::kPairwise}) {
      ClusterConfig serial_config = ClusterConfig::ForTesting();
      serial_config.max_concurrent_jobs = 1;
      Engine serial_engine(serial_config);
      Result<SliceBlocks> want =
          MultiModeContract(&serial_engine, x, factors, 0, kind, v);
      ASSERT_OK(want.status());

      ClusterConfig conc_config = ClusterConfig::ForTesting();
      conc_config.max_concurrent_jobs = 4;
      Engine conc_engine(conc_config);
      Result<SliceBlocks> got =
          MultiModeContract(&conc_engine, x, factors, 0, kind, v);
      ASSERT_OK(got.status());

      // Bit-identical outputs regardless of the scheduling interleaving.
      ASSERT_EQ(want->slice_ids, got->slice_ids);
      ASSERT_TRUE(want->values.SameShape(got->values));
      EXPECT_EQ(want->values.data(), got->values.data());
      // Same jobs either way — concurrency must not change paper counts.
      EXPECT_EQ(serial_engine.PipelineSnapshot().NumJobs(),
                conc_engine.PipelineSnapshot().NumJobs());
    }
  }
}

}  // namespace
}  // namespace haten2
