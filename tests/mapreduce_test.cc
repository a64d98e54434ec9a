// Tests for the in-process MapReduce engine: classic word-count semantics,
// combiners, counters, determinism across thread counts, the shuffle-memory
// budget, and the simulated-cluster cost model.

#include "mapreduce/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "mapreduce/cost_model.h"
#include "test_util.h"

namespace haten2 {
namespace {

// Canonical word-count over integer "words".
std::map<int64_t, int64_t> RunWordCount(Engine* engine,
                                        const std::vector<int64_t>& words,
                                        bool with_combiner) {
  std::function<int64_t(const int64_t&, const int64_t&)> combiner;
  if (with_combiner) {
    combiner = [](const int64_t& a, const int64_t& b) { return a + b; };
  }
  auto result = engine->Run<int64_t, int64_t, int64_t, int64_t>(
      "wordcount", static_cast<int64_t>(words.size()),
      [&words](int64_t i, ShuffleEmitter<int64_t, int64_t>* em) {
        em->Emit(words[static_cast<size_t>(i)], 1);
      },
      [](const int64_t& word, std::vector<int64_t>& counts,
         OutputEmitter<int64_t, int64_t>* out) {
        int64_t total = 0;
        for (int64_t c : counts) total += c;
        out->Emit(word, total);
      },
      combiner);
  HATEN2_CHECK(result.ok()) << result.status().ToString();
  std::map<int64_t, int64_t> histogram;
  for (const auto& [word, count] : *result) histogram[word] = count;
  return histogram;
}

TEST(EngineWordCount, CountsCorrectly) {
  std::vector<int64_t> words = {1, 2, 2, 3, 3, 3, 7};
  Engine engine(ClusterConfig::ForTesting());
  std::map<int64_t, int64_t> histogram =
      RunWordCount(&engine, words, /*with_combiner=*/false);
  EXPECT_EQ(histogram.size(), 4u);
  EXPECT_EQ(histogram[1], 1);
  EXPECT_EQ(histogram[2], 2);
  EXPECT_EQ(histogram[3], 3);
  EXPECT_EQ(histogram[7], 1);
}

TEST(EngineWordCount, EmptyInputYieldsEmptyOutput) {
  Engine engine(ClusterConfig::ForTesting());
  std::map<int64_t, int64_t> histogram = RunWordCount(&engine, {}, false);
  EXPECT_TRUE(histogram.empty());
  EXPECT_EQ(engine.pipeline().NumJobs(), 1);  // the job still ran
}

TEST(EngineCombiner, ReducesShuffledRecordsNotResults) {
  std::vector<int64_t> words(1000, 42);  // single hot key
  words.push_back(7);

  Engine plain(ClusterConfig::ForTesting());
  std::map<int64_t, int64_t> without =
      RunWordCount(&plain, words, /*with_combiner=*/false);

  Engine combined(ClusterConfig::ForTesting());
  std::map<int64_t, int64_t> with =
      RunWordCount(&combined, words, /*with_combiner=*/true);

  EXPECT_EQ(without, with);
  const JobStats& plain_stats = plain.pipeline().jobs[0];
  const JobStats& comb_stats = combined.pipeline().jobs[0];
  EXPECT_EQ(plain_stats.map_output_records, 1001);
  EXPECT_LT(comb_stats.map_output_records, 32);
  EXPECT_EQ(comb_stats.pre_combine_records, 1001);
}

TEST(EngineDeterminism, SameResultAcrossThreadCounts) {
  std::vector<int64_t> words;
  Rng rng(50);
  for (int i = 0; i < 5000; ++i) {
    words.push_back(static_cast<int64_t>(rng.UniformInt(uint64_t{100})));
  }
  std::map<int64_t, int64_t> reference;
  for (int threads : {1, 2, 4, 8}) {
    ClusterConfig config = ClusterConfig::ForTesting();
    config.num_threads = threads;
    Engine engine(config);
    std::map<int64_t, int64_t> histogram = RunWordCount(&engine, words, true);
    if (threads == 1) {
      reference = histogram;
    } else {
      EXPECT_EQ(histogram, reference) << "threads=" << threads;
    }
  }
}

TEST(EngineCounters, TrackShuffleVolumes) {
  std::vector<int64_t> words = {5, 5, 6};
  Engine engine(ClusterConfig::ForTesting());
  RunWordCount(&engine, words, false);
  const JobStats& stats = engine.pipeline().jobs[0];
  EXPECT_EQ(stats.name, "wordcount");
  EXPECT_EQ(stats.map_input_records, 3);
  EXPECT_EQ(stats.map_output_records, 3);
  EXPECT_EQ(stats.map_output_bytes, 3 * (sizeof(int64_t) + sizeof(int64_t)));
  EXPECT_EQ(stats.reduce_input_groups, 2);
  EXPECT_EQ(stats.reduce_output_records, 2);
  int64_t task_total = 0;
  for (int64_t t : stats.map_task_records) task_total += t;
  EXPECT_EQ(task_total, 3);
  int64_t partition_total = 0;
  for (int64_t p : stats.reduce_partition_records) partition_total += p;
  EXPECT_EQ(partition_total, 3);
}

TEST(EngineMemoryBudget, OverflowFailsWithResourceExhausted) {
  ClusterConfig config = ClusterConfig::ForTesting();
  config.total_shuffle_memory_bytes = 1024;  // 64 records of 16 bytes
  Engine engine(config);
  std::vector<int64_t> words(100000, 1);
  auto result = engine.Run<int64_t, int64_t, int64_t, int64_t>(
      "overflow", static_cast<int64_t>(words.size()),
      [&words](int64_t i, ShuffleEmitter<int64_t, int64_t>* em) {
        em->Emit(words[static_cast<size_t>(i)], 1);
      },
      [](const int64_t& k, std::vector<int64_t>& vs,
         OutputEmitter<int64_t, int64_t>* out) {
        out->Emit(k, static_cast<int64_t>(vs.size()));
      });
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted());
  // Budget must be released after the failed job: a small job now succeeds.
  std::vector<int64_t> small = {1, 2, 3};
  std::map<int64_t, int64_t> histogram = RunWordCount(&engine, small, false);
  EXPECT_EQ(histogram.size(), 3u);
}

TEST(EngineMemoryBudget, ChargesAreReleasedAfterSuccess) {
  ClusterConfig config = ClusterConfig::ForTesting();
  config.total_shuffle_memory_bytes = 1 << 20;
  Engine engine(config);
  std::vector<int64_t> words(1000, 3);
  RunWordCount(&engine, words, false);
  EXPECT_EQ(engine.memory().used(), 0u);
  EXPECT_GT(engine.memory().peak(), 0u);
}

TEST(EnginePipeline, AccumulatesAndClears) {
  Engine engine(ClusterConfig::ForTesting());
  RunWordCount(&engine, {1, 2}, false);
  RunWordCount(&engine, {3}, false);
  EXPECT_EQ(engine.pipeline().NumJobs(), 2);
  EXPECT_EQ(engine.pipeline().TotalIntermediateRecords(), 3);
  EXPECT_EQ(engine.pipeline().MaxIntermediateRecords(), 2);
  EXPECT_FALSE(engine.pipeline().ToString().empty());
  engine.ClearPipeline();
  EXPECT_EQ(engine.pipeline().NumJobs(), 0);
}

// ---------------------------------------------------------------------------
// Cost model.
// ---------------------------------------------------------------------------

TEST(CostModelMakespan, GreedyScheduling) {
  EXPECT_DOUBLE_EQ(CostModel::Makespan({}, 4), 0.0);
  EXPECT_DOUBLE_EQ(CostModel::Makespan({5.0}, 4), 5.0);
  // 4 tasks of 1.0 on 2 workers => 2.0.
  EXPECT_DOUBLE_EQ(CostModel::Makespan({1, 1, 1, 1}, 2), 2.0);
  // LPT is a 4/3-approximation, not optimal: on {3, 3, 2, 2, 2} with 2
  // workers it yields 7 (3+2+2 / 3+2) while OPT is 6 (3+3 / 2+2+2).
  EXPECT_DOUBLE_EQ(CostModel::Makespan({3, 3, 2, 2, 2}, 2), 7.0);
  // One worker: sum.
  EXPECT_DOUBLE_EQ(CostModel::Makespan({1, 2, 3}, 1), 6.0);
  EXPECT_DOUBLE_EQ(CostModel::Makespan({1, 2, 3}, 0), 6.0);  // clamped
}

JobStats SyntheticJob(int64_t records) {
  JobStats stats;
  stats.name = "synthetic";
  stats.map_input_records = records;
  stats.map_output_records = records;
  stats.map_output_bytes = static_cast<uint64_t>(records) * 16;
  // 64 map tasks, 64 partitions, evenly loaded.
  stats.map_task_records.assign(64, records / 64);
  stats.reduce_partition_records.assign(64, records / 64);
  stats.reduce_partition_bytes.assign(
      64, static_cast<uint64_t>(records) * 16 / 64);
  return stats;
}

TEST(CostModelScaling, MoreMachinesNeverSlower) {
  JobStats job = SyntheticJob(64 * 1000000);
  double prev = 1e300;
  for (int machines : {1, 2, 4, 8, 16, 32}) {
    ClusterConfig config;
    config.num_machines = machines;
    double t = CostModel(config).SimulateJob(job);
    EXPECT_LE(t, prev + 1e-9) << machines << " machines";
    prev = t;
  }
}

TEST(CostModelScaling, ScaleUpFlattensDueToStartup) {
  // The paper's Figure 8 behaviour: near-linear early, flattening later.
  JobStats job = SyntheticJob(64 * 200000);
  ClusterConfig base;
  base.num_machines = 10;
  double t10 = CostModel(base).SimulateJob(job);
  base.num_machines = 20;
  double t20 = CostModel(base).SimulateJob(job);
  base.num_machines = 40;
  double t40 = CostModel(base).SimulateJob(job);
  double speedup_20 = t10 / t20;
  double speedup_40 = t10 / t40;
  EXPECT_GT(speedup_20, 1.0);
  EXPECT_GT(speedup_40, speedup_20);
  // Sub-linear: doubling machines twice gives < 4x.
  EXPECT_LT(speedup_40, 4.0);
  // Marginal gain shrinks: 20->40 gains less than 10->20.
  EXPECT_LT(speedup_40 / speedup_20, speedup_20);
}

TEST(CostModelPipeline, SumsJobsAndChargesStartupPerJob) {
  ClusterConfig config;
  config.job_startup_seconds = 8.0;
  CostModel model(config);
  PipelineStats pipeline;
  pipeline.jobs.push_back(SyntheticJob(6400));
  pipeline.jobs.push_back(SyntheticJob(6400));
  double two = model.SimulatePipeline(pipeline);
  pipeline.jobs.push_back(SyntheticJob(6400));
  double three = model.SimulatePipeline(pipeline);
  EXPECT_GT(three, two + config.job_startup_seconds - 1e-9);
}

}  // namespace
}  // namespace haten2
