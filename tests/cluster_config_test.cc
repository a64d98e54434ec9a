// Tests for ClusterConfig's derived quantities and defaults (the knobs
// every benchmark harness turns).

#include "mapreduce/cluster.h"

#include <gtest/gtest.h>

#include <limits>

#include "mapreduce/engine.h"
#include "test_util.h"

namespace haten2 {
namespace {

TEST(ClusterConfigTest, DerivedSlotCounts) {
  ClusterConfig config;
  config.num_machines = 10;
  config.map_slots_per_machine = 4;
  config.reduce_slots_per_machine = 2;
  EXPECT_EQ(config.TotalMapSlots(), 40);
  EXPECT_EQ(config.TotalReduceSlots(), 20);
  EXPECT_EQ(config.EffectiveMapTasks(), 40);
  EXPECT_EQ(config.EffectiveReduceTasks(), 20);
  config.num_map_tasks = 7;
  config.num_reduce_tasks = 3;
  EXPECT_EQ(config.EffectiveMapTasks(), 7);
  EXPECT_EQ(config.EffectiveReduceTasks(), 3);
}

TEST(ClusterConfigTest, DefaultsMatchThePaperTestbed) {
  ClusterConfig config;
  EXPECT_EQ(config.num_machines, 40);
  EXPECT_EQ(config.map_slots_per_machine, 4);
  EXPECT_EQ(config.reduce_slots_per_machine, 4);
  EXPECT_GT(config.job_startup_seconds, 0.0);
  EXPECT_EQ(config.total_shuffle_memory_bytes, 0u);  // unlimited
  EXPECT_DOUBLE_EQ(config.task_failure_probability, 0.0);
}

TEST(ClusterConfigTest, ForTestingIsSmallAndFast) {
  ClusterConfig config = ClusterConfig::ForTesting();
  EXPECT_LE(config.TotalMapSlots(), 8);
  EXPECT_DOUBLE_EQ(config.job_startup_seconds, 0.0);
}

TEST(ClusterConfigTest, ExplicitTaskCountsShapeTheJob) {
  // The engine honors num_map_tasks / num_reduce_tasks exactly.
  ClusterConfig config = ClusterConfig::ForTesting();
  config.num_map_tasks = 3;
  config.num_reduce_tasks = 5;
  Engine engine(config);
  std::vector<int64_t> words(1000, 1);
  auto result = engine.Run<int64_t, int64_t, int64_t, int64_t>(
      "shaped", static_cast<int64_t>(words.size()),
      [&words](int64_t i, ShuffleEmitter<int64_t, int64_t>* em) {
        em->Emit(words[static_cast<size_t>(i)], 1);
      },
      [](const int64_t& w, std::vector<int64_t>& vs,
         OutputEmitter<int64_t, int64_t>* out) {
        out->Emit(w, static_cast<int64_t>(vs.size()));
      });
  ASSERT_OK(result.status());
  const JobStats& stats = engine.pipeline().jobs[0];
  EXPECT_EQ(stats.map_task_records.size(), 3u);
  EXPECT_EQ(stats.reduce_partition_records.size(), 5u);
}

TEST(ClusterConfigTest, FewerInputRecordsThanTasksShrinksTheTaskCount) {
  ClusterConfig config = ClusterConfig::ForTesting();
  config.num_map_tasks = 64;
  Engine engine(config);
  std::vector<int64_t> words = {1, 2};
  auto result = engine.Run<int64_t, int64_t, int64_t, int64_t>(
      "tiny", static_cast<int64_t>(words.size()),
      [&words](int64_t i, ShuffleEmitter<int64_t, int64_t>* em) {
        em->Emit(words[static_cast<size_t>(i)], 1);
      },
      [](const int64_t& w, std::vector<int64_t>& vs,
         OutputEmitter<int64_t, int64_t>* out) {
        out->Emit(w, static_cast<int64_t>(vs.size()));
      });
  ASSERT_OK(result.status());
  EXPECT_EQ(engine.pipeline().jobs[0].map_task_records.size(), 2u);
}

TEST(ClusterConfigValidateTest, DefaultAndTestingConfigsAreValid) {
  EXPECT_OK(ClusterConfig().Validate());
  EXPECT_OK(ClusterConfig::ForTesting().Validate());
}

// Each rejected field produces kInvalidArgument naming the field, so the
// CLI error message tells the user which flag to fix.
TEST(ClusterConfigValidateTest, RejectsEachBadFieldByName) {
  struct Case {
    const char* field;
    void (*set)(ClusterConfig*);
  };
  const Case cases[] = {
      {"num_machines", [](ClusterConfig* c) { c->num_machines = 0; }},
      {"map_slots_per_machine",
       [](ClusterConfig* c) { c->map_slots_per_machine = 0; }},
      {"reduce_slots_per_machine",
       [](ClusterConfig* c) { c->reduce_slots_per_machine = -1; }},
      {"num_threads", [](ClusterConfig* c) { c->num_threads = 0; }},
      {"max_concurrent_jobs",
       [](ClusterConfig* c) { c->max_concurrent_jobs = 0; }},
      {"num_map_tasks", [](ClusterConfig* c) { c->num_map_tasks = -1; }},
      {"num_reduce_tasks", [](ClusterConfig* c) { c->num_reduce_tasks = -2; }},
      {"job_startup_seconds",
       [](ClusterConfig* c) { c->job_startup_seconds = -1.0; }},
      {"map_seconds_per_record",
       [](ClusterConfig* c) {
         c->map_seconds_per_record = std::numeric_limits<double>::infinity();
       }},
      {"reduce_seconds_per_record",
       [](ClusterConfig* c) { c->reduce_seconds_per_record = -1e-9; }},
      {"network_bytes_per_second",
       [](ClusterConfig* c) { c->network_bytes_per_second = 0.0; }},
      {"disk_bytes_per_second",
       [](ClusterConfig* c) { c->disk_bytes_per_second = -200e6; }},
      {"task_failure_probability",
       [](ClusterConfig* c) { c->task_failure_probability = 1.5; }},
      {"task_failure_probability",
       [](ClusterConfig* c) {
         c->task_failure_probability =
             std::numeric_limits<double>::quiet_NaN();
       }},
      {"max_task_attempts",
       [](ClusterConfig* c) { c->max_task_attempts = 0; }},
      {"contraction", [](ClusterConfig* c) { c->contraction = "gpu"; }},
      {"contraction", [](ClusterConfig* c) { c->contraction = ""; }},
      {"contraction", [](ClusterConfig* c) { c->contraction = "Incore"; }},
      {"incore_memory_mb",
       [](ClusterConfig* c) { c->incore_memory_mb = 0; }},
      {"incore_memory_mb",
       [](ClusterConfig* c) { c->incore_memory_mb = -512; }},
      {"tucker_sketch", [](ClusterConfig* c) { c->tucker_sketch = "srht"; }},
      {"tucker_sketch", [](ClusterConfig* c) { c->tucker_sketch = ""; }},
      {"tucker_sketch",
       [](ClusterConfig* c) { c->tucker_sketch = "Gaussian"; }},
      {"sketch_size", [](ClusterConfig* c) { c->sketch_size = -1; }},
      {"exact_polish_sweeps",
       [](ClusterConfig* c) { c->exact_polish_sweeps = -1; }},
  };
  for (const Case& c : cases) {
    ClusterConfig config;
    c.set(&config);
    Status s = config.Validate();
    EXPECT_TRUE(s.IsInvalidArgument()) << c.field << ": " << s.ToString();
    EXPECT_NE(s.ToString().find(c.field), std::string::npos)
        << "error does not name the field: " << s.ToString();
  }
}

TEST(ClusterConfigValidateTest, AcceptsEveryContractionStrategy) {
  for (const char* strategy : {"auto", "dataflow", "incore"}) {
    ClusterConfig config = ClusterConfig::ForTesting();
    config.contraction = strategy;
    Status s = config.Validate();
    EXPECT_TRUE(s.ok()) << strategy << ": " << s.ToString();
  }
}

TEST(ClusterConfigValidateTest, AcceptsEverySketchKind) {
  for (const char* kind : {"none", "gaussian", "countsketch"}) {
    ClusterConfig config = ClusterConfig::ForTesting();
    config.tucker_sketch = kind;
    Status s = config.Validate();
    EXPECT_TRUE(s.ok()) << kind << ": " << s.ToString();
  }
}

TEST(ClusterConfigTest, ContractionDefaultsToDataflow) {
  // The default must stay "dataflow": job counts, pipeline counters, and
  // the paper's Tables III/IV reproduction all assume the MapReduce path
  // unless the caller opts in.
  EXPECT_EQ(ClusterConfig().contraction, "dataflow");
  EXPECT_EQ(ClusterConfig::ForTesting().contraction, "dataflow");
  EXPECT_GE(ClusterConfig().incore_memory_mb, 1);
}

TEST(ClusterConfigValidateTest, AcceptsWholeFailureProbabilityRange) {
  // The failure-injection tests legitimately run with prob 0.25 / 0.5 / 1.0.
  for (double p : {0.0, 0.25, 0.5, 1.0}) {
    ClusterConfig config;
    config.task_failure_probability = p;
    EXPECT_OK(config.Validate());
  }
}

TEST(ClusterConfigValidateTest, EngineFailsFastOnInvalidConfig) {
  // The Engine constructor cannot return a Status; the first Run() does.
  ClusterConfig config = ClusterConfig::ForTesting();
  config.network_bytes_per_second = 0.0;
  Engine engine(config);
  auto result = engine.Run<int64_t, int64_t, int64_t, int64_t>(
      "invalid", 4,
      [](int64_t i, ShuffleEmitter<int64_t, int64_t>* em) { em->Emit(i, 1); },
      [](const int64_t& k, std::vector<int64_t>& vs,
         OutputEmitter<int64_t, int64_t>* out) {
        out->Emit(k, static_cast<int64_t>(vs.size()));
      });
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
  EXPECT_NE(result.status().ToString().find("network_bytes_per_second"),
            std::string::npos)
      << result.status().ToString();
  // Nothing ran: the pipeline log stays empty.
  EXPECT_TRUE(engine.pipeline().jobs.empty());
}

}  // namespace
}  // namespace haten2
