// Tests for the dataflow plan layer: Plan construction (DAG-by-construction
// and builder poisoning), PlanScheduler ordering and failure propagation,
// job ids reserved by node index, plan statistics (observed concurrency,
// critical path vs total work), and the iteration-invariant input-scan
// cache counters.

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

/// Runs a `records`-record sum job on `engine`.
Status RunJob(Engine* engine, const std::string& name, int64_t records = 100) {
  return engine
      ->Run<int64_t, int64_t, int64_t, int64_t>(
          name, records,
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
  // Pipeline-level aggregates see the same numbers.
  EXPECT_EQ(pipeline.MaxScheduledConcurrency(), 2);
  EXPECT_LT(pipeline.TotalCriticalPathSeconds(),
            pipeline.TotalPlanNodeSeconds());
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
  Engine engine(ClusterConfig::ForTesting());
  Plan plan("two-jobs");
  plan.AddJob("left", {}, [&] { return RunJob(&engine, "left"); });
  plan.AddJob("right", {}, [&] { return RunJob(&engine, "right"); });
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
  ASSERT_OK(RunJob(&engine, "direct"));
  pipeline = engine.PipelineSnapshot();
  EXPECT_EQ(pipeline.jobs.back().plan_id, -1);
}

TEST(Scheduler, PipelineSinceFiltersByJobIdWatermark) {
  Engine engine(ClusterConfig::ForTesting());
  ASSERT_OK(RunJob(&engine, "before", 10));
  const int64_t watermark = engine.NextJobId();
  ASSERT_OK(RunJob(&engine, "after", 10));
  PipelineStats since = engine.PipelineSince(watermark, engine.NextPlanId());
  ASSERT_EQ(since.jobs.size(), 1u);
  EXPECT_EQ(since.jobs[0].name, "after");
  EXPECT_GE(since.jobs[0].job_id, watermark);
}

TEST(Scheduler, JobIdsFollowNodeIndexNotStartOrder) {
  // Node 0 sleeps before its job, so under cap 3 its job starts last. It
  // still gets the plan's first reserved id, the log lists jobs in id
  // order, and a fresh engine hands out the same ids.
  std::vector<int64_t> first_ids;
  for (int run = 0; run < 2; ++run) {
    Engine engine(ClusterConfig::ForTesting());
    ASSERT_OK(RunJob(&engine, "direct"));
    const int64_t first = engine.NextJobId();
    Plan plan("three");
    plan.AddJob("n0", {}, [&engine] {
      SleepMs(30);
      return RunJob(&engine, "j0");
    });
    plan.AddJob("n1", {}, [&engine] { return RunJob(&engine, "j1"); });
    plan.AddJob("n2", {}, [&engine] { return RunJob(&engine, "j2"); });
    ASSERT_OK(PlanScheduler(&engine, /*max_concurrent=*/3).Execute(plan));

    PipelineStats pipeline = engine.PipelineSnapshot();
    ASSERT_EQ(pipeline.jobs.size(), 4u);
    EXPECT_EQ(pipeline.jobs[0].name, "direct");
    for (int i = 0; i < 3; ++i) {
      const JobStats& job = pipeline.jobs[static_cast<size_t>(i) + 1];
      EXPECT_EQ(job.name, "j" + std::to_string(i));
      EXPECT_EQ(job.job_id, first + i);
      EXPECT_EQ(pipeline.plans[0].nodes[static_cast<size_t>(i)].job_ids,
                std::vector<int64_t>{first + i});
    }
    EXPECT_EQ(engine.NextJobId(), first + 3);
    first_ids.push_back(first);
  }
  EXPECT_EQ(first_ids[0], first_ids[1]);
}

TEST(Scheduler, SecondEngineJobInOneNodeFailsPrecondition) {
  Engine engine(ClusterConfig::ForTesting());
  Plan plan("two-in-one");
  plan.AddJob("greedy", {}, [&engine]() -> Status {
    HATEN2_RETURN_IF_ERROR(RunJob(&engine, "first"));
    return RunJob(&engine, "second");
  });
  Status status = PlanScheduler(&engine).Execute(plan);
  EXPECT_TRUE(status.IsFailedPrecondition()) << status.ToString();
  EXPECT_NE(status.message().find("'second'"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(engine.memory().used(), 0u);

  // The first job ran under the node's id; the second never started.
  PipelineStats pipeline = engine.PipelineSnapshot();
  ASSERT_EQ(pipeline.jobs.size(), 1u);
  EXPECT_EQ(pipeline.jobs[0].name, "first");
  const PlanNodeStats& node = pipeline.plans[0].nodes[0];
  EXPECT_EQ(node.status, "failed");
  EXPECT_EQ(node.job_ids, std::vector<int64_t>{pipeline.jobs[0].job_id});
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
