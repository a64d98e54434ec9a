// Tests for the engine's observability layer: per-phase wall times, skew
// summaries, failure-path accounting (o.o.m. / abort), the
// "haten2-stats-v13" JSON export, and concurrent Run calls on one engine.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/parafac.h"
#include "json_checker.h"
#include "mapreduce/engine.h"
#include "mapreduce/stats_json.h"
#include "test_util.h"

namespace haten2 {
namespace {

/// Runs word count and returns the histogram; asserts success.
std::map<int64_t, int64_t> WordCount(Engine* engine,
                                     const std::vector<int64_t>& words,
                                     const std::string& name = "wc") {
  auto result = engine->Run<int64_t, int64_t, int64_t, int64_t>(
      name, static_cast<int64_t>(words.size()),
      [&words](int64_t i, ShuffleEmitter<int64_t, int64_t>* em) {
        em->Emit(words[static_cast<size_t>(i)], 1);
      },
      [](const int64_t& w, std::vector<int64_t>& vs,
         OutputEmitter<int64_t, int64_t>* out) {
        int64_t sum = 0;
        for (int64_t v : vs) sum += v;
        out->Emit(w, sum);
      });
  HATEN2_CHECK(result.ok()) << result.status().ToString();
  std::map<int64_t, int64_t> histogram;
  for (auto& [w, c] : *result) histogram[w] = c;
  return histogram;
}

std::vector<int64_t> RandomWords(int n, uint64_t seed, uint64_t vocab = 64) {
  std::vector<int64_t> words;
  words.reserve(static_cast<size_t>(n));
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    words.push_back(static_cast<int64_t>(rng.UniformInt(vocab)));
  }
  return words;
}

using haten2::testing::JsonChecker;

// ---------------------------------------------------------------------------
// Phase times.

TEST(EngineStats, PhaseTimesPopulatedAndSumToWall) {
  ClusterConfig config = ClusterConfig::ForTesting();
  Engine engine(config);
  auto result = engine.Run<int64_t, int64_t, int64_t, int64_t>(
      "phases", 50000,
      [](int64_t i, ShuffleEmitter<int64_t, int64_t>* em) {
        em->Emit(i % 97, 1);
      },
      [](const int64_t& w, std::vector<int64_t>& vs,
         OutputEmitter<int64_t, int64_t>* out) {
        int64_t sum = 0;
        for (int64_t v : vs) sum += v;
        out->Emit(w, sum);
      },
      [](const int64_t& a, const int64_t& b) { return a + b; });
  ASSERT_OK(result.status());
  ASSERT_EQ(engine.pipeline().NumJobs(), 1);
  const JobStats& job = engine.pipeline().jobs[0];
  EXPECT_GE(job.phases.map_seconds, 0.0);
  EXPECT_GE(job.phases.combine_seconds, 0.0);
  EXPECT_GE(job.phases.shuffle_seconds, 0.0);
  EXPECT_GE(job.phases.reduce_seconds, 0.0);
  // The phase segments are contiguous slices of the job's wall time, so
  // they sum to the wall time up to the output-concatenation tail and
  // timer-read noise.
  EXPECT_LE(job.phases.Total(), job.wall_seconds + 1e-9);
  EXPECT_NEAR(job.phases.Total(), job.wall_seconds,
              0.1 * job.wall_seconds + 1e-3);
}

TEST(EngineStats, NoCombinerLeavesCombinePhaseZero) {
  ClusterConfig config = ClusterConfig::ForTesting();
  Engine engine(config);
  WordCount(&engine, RandomWords(1000, 91));
  const JobStats& job = engine.pipeline().jobs[0];
  EXPECT_EQ(job.phases.combine_seconds, 0.0);
  EXPECT_GE(job.phases.map_seconds, 0.0);
}

TEST(EngineStats, SkewSummariesMatchPerTaskCounts) {
  ClusterConfig config = ClusterConfig::ForTesting();
  Engine engine(config);
  WordCount(&engine, RandomWords(10000, 92));
  const JobStats& job = engine.pipeline().jobs[0];
  TaskSkew map_skew = job.MapTaskSkew();
  EXPECT_EQ(map_skew.tasks,
            static_cast<int64_t>(job.map_task_records.size()));
  int64_t total = 0;
  for (int64_t r : job.map_task_records) {
    total += r;
    EXPECT_GE(r, map_skew.min_records);
    EXPECT_LE(r, map_skew.max_records);
  }
  EXPECT_EQ(total, job.map_input_records);
  EXPECT_GE(map_skew.p50_records, map_skew.min_records);
  EXPECT_LE(map_skew.p50_records, map_skew.max_records);

  TaskSkew reduce_skew = job.ReducePartitionSkew();
  EXPECT_EQ(reduce_skew.tasks,
            static_cast<int64_t>(job.reduce_partition_records.size()));
}

// ---------------------------------------------------------------------------
// Determinism across thread counts: the counters describe the dataflow, not
// the execution schedule.

TEST(EngineStats, CountersIdenticalAcrossThreadCounts) {
  std::vector<int64_t> words = RandomWords(20000, 93);
  std::vector<JobStats> observed;
  for (int threads : {1, 4}) {
    ClusterConfig config = ClusterConfig::ForTesting();
    config.num_threads = threads;
    Engine engine(config);
    WordCount(&engine, words);
    observed.push_back(engine.pipeline().jobs[0]);
  }
  const JobStats& a = observed[0];
  const JobStats& b = observed[1];
  EXPECT_EQ(a.map_input_records, b.map_input_records);
  EXPECT_EQ(a.map_output_records, b.map_output_records);
  EXPECT_EQ(a.map_output_bytes, b.map_output_bytes);
  EXPECT_EQ(a.pre_combine_records, b.pre_combine_records);
  EXPECT_EQ(a.reduce_input_groups, b.reduce_input_groups);
  EXPECT_EQ(a.reduce_output_records, b.reduce_output_records);
  EXPECT_EQ(a.map_task_records, b.map_task_records);
  EXPECT_EQ(a.reduce_partition_records, b.reduce_partition_records);
  EXPECT_EQ(a.reduce_partition_bytes, b.reduce_partition_bytes);
  EXPECT_EQ(a.failure, b.failure);
}

// ---------------------------------------------------------------------------
// Failure-path accounting (the post-mortem numbers of the paper's o.o.m.
// deaths).

TEST(EngineStats, OomJobKeepsVolumeCounters) {
  ClusterConfig config = ClusterConfig::ForTesting();
  config.total_shuffle_memory_bytes = 64 * 1024;
  Engine engine(config);
  std::vector<int64_t> words(100000, 1);
  auto result = engine.Run<int64_t, int64_t, int64_t, int64_t>(
      "overflow", static_cast<int64_t>(words.size()),
      [&words](int64_t i, ShuffleEmitter<int64_t, int64_t>* em) {
        em->Emit(words[static_cast<size_t>(i)], 1);
      },
      [](const int64_t& w, std::vector<int64_t>& vs,
         OutputEmitter<int64_t, int64_t>* out) {
        out->Emit(w, static_cast<int64_t>(vs.size()));
      });
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted());

  ASSERT_EQ(engine.pipeline().NumJobs(), 1);
  const JobStats& job = engine.pipeline().jobs[0];
  EXPECT_TRUE(job.failed());
  EXPECT_EQ(job.failure, "oom");
  // The shuffle volumes the job materialized before dying are recorded...
  EXPECT_GT(job.map_output_records, 0);
  EXPECT_EQ(job.map_output_bytes,
            static_cast<uint64_t>(job.map_output_records) *
                (ShuffleEmitter<int64_t, int64_t>::kRecordBytes));
  // ...the partition vectors report their true size (zero-filled: the job
  // never reached the shuffle phase)...
  EXPECT_EQ(static_cast<int>(job.reduce_partition_records.size()),
            config.EffectiveReduceTasks());
  // ...and the budget is released.
  EXPECT_EQ(engine.memory().used(), 0u);
  EXPECT_EQ(engine.pipeline().NumFailedJobs(), 1);
}

TEST(EngineStats, OomStopsEachTaskAtItsFirstUnchargeableChunk) {
  // Emitters charge the budget per kChargeChunkRecords records, so a budget
  // below one chunk stops every map task at its first chunk. The failed map
  // phase runs no combiner: the job shuffles what the tasks emitted.
  ClusterConfig config = ClusterConfig::ForTesting();
  config.total_shuffle_memory_bytes = 4096;
  Engine engine(config);
  auto result = engine.Run<int64_t, double, int64_t, double>(
      "oom-chunks", 40000,
      [](int64_t i, ShuffleEmitter<int64_t, double>* em) {
        em->Emit(i % 97, 1.0);
      },
      [](const int64_t& key, std::vector<double>& values,
         OutputEmitter<int64_t, double>* out) {
        out->Emit(key, static_cast<double>(values.size()));
      },
      [](const double& a, const double& b) { return a + b; });
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted())
      << result.status().ToString();
  ASSERT_EQ(engine.pipeline().jobs.size(), 1u);
  const JobStats& job = engine.pipeline().jobs[0];
  EXPECT_EQ(job.failure, "oom");
  constexpr int64_t kChunk =
      ShuffleEmitter<int64_t, double>::kChargeChunkRecords;
  EXPECT_EQ(job.pre_combine_records, config.EffectiveMapTasks() * kChunk);
  EXPECT_EQ(job.map_output_records, job.pre_combine_records);
  EXPECT_EQ(engine.memory().used(), 0u);
}

TEST(EngineStats, AbortedJobRecordsFailureKindAndVolumes) {
  // Find a failure seed whose sampled failures abort the job.
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    ClusterConfig config = ClusterConfig::ForTesting();
    config.num_machines = 8;
    config.task_failure_probability = 0.4;
    config.max_task_attempts = 1;
    config.failure_seed = seed;
    Engine engine(config);
    std::vector<int64_t> words(5000, 1);
    auto result = engine.Run<int64_t, int64_t, int64_t, int64_t>(
        "abort", static_cast<int64_t>(words.size()),
        [&words](int64_t i, ShuffleEmitter<int64_t, int64_t>* em) {
          em->Emit(words[static_cast<size_t>(i)], 1);
        },
        [](const int64_t& w, std::vector<int64_t>& vs,
           OutputEmitter<int64_t, int64_t>* out) {
          out->Emit(w, static_cast<int64_t>(vs.size()));
        });
    if (result.ok()) continue;  // this seed did not abort; try the next
    ASSERT_TRUE(result.status().IsAborted());
    const JobStats& job = engine.pipeline().jobs[0];
    EXPECT_TRUE(job.failed());
    EXPECT_EQ(job.failure, "aborted");
    // Surviving tasks' output was counted.
    EXPECT_GT(job.map_output_records, 0);
    EXPECT_EQ(engine.memory().used(), 0u);
    return;
  }
  FAIL() << "no failure seed in [1, 50] aborted the job";
}

TEST(EngineStats, MapTaskRecordsCountReaderInvocations) {
  // Success case: per-task counts equal the records handed to the reader.
  {
    ClusterConfig config = ClusterConfig::ForTesting();
    Engine engine(config);
    std::atomic<int64_t> reader_calls{0};
    auto result = engine.Run<int64_t, int64_t, int64_t, int64_t>(
        "count-reads", 12345,
        [&reader_calls](int64_t i, ShuffleEmitter<int64_t, int64_t>* em) {
          reader_calls.fetch_add(1, std::memory_order_relaxed);
          em->Emit(i % 10, 1);
        },
        [](const int64_t& w, std::vector<int64_t>& vs,
           OutputEmitter<int64_t, int64_t>* out) {
          out->Emit(w, static_cast<int64_t>(vs.size()));
        });
    ASSERT_OK(result.status());
    int64_t counted = 0;
    for (int64_t r : engine.pipeline().jobs[0].map_task_records) {
      counted += r;
    }
    EXPECT_EQ(counted, reader_calls.load());
    EXPECT_EQ(counted, 12345);
  }
  // Early-abort case: a task killed mid-chunk by the budget must not claim
  // its whole chunk.
  {
    ClusterConfig config = ClusterConfig::ForTesting();
    config.num_threads = 1;  // deterministic kill point
    config.total_shuffle_memory_bytes = 64 * 1024;
    Engine engine(config);
    std::atomic<int64_t> reader_calls{0};
    const int64_t n = 1000000;
    auto result = engine.Run<int64_t, int64_t, int64_t, int64_t>(
        "count-reads-oom", n,
        [&reader_calls](int64_t i, ShuffleEmitter<int64_t, int64_t>* em) {
          reader_calls.fetch_add(1, std::memory_order_relaxed);
          em->Emit(i, 1);
        },
        [](const int64_t& w, std::vector<int64_t>& vs,
           OutputEmitter<int64_t, int64_t>* out) {
          out->Emit(w, static_cast<int64_t>(vs.size()));
        });
    ASSERT_FALSE(result.ok());
    int64_t counted = 0;
    for (int64_t r : engine.pipeline().jobs[0].map_task_records) {
      counted += r;
    }
    EXPECT_EQ(counted, reader_calls.load());
    EXPECT_LT(counted, n);  // the job died before reading everything
  }
}

TEST(EngineStats, PipelineSinceExcludesPlansWithoutJobIds) {
  // Regression: a plan whose nodes recorded no job ids (every node failed
  // before its first job, or a pure-assembly plan) used to be vacuously
  // "in range" and show up in every later iteration's PipelineSince()
  // slice. Plans are attributed by their own plan id, so such a plan
  // appears only in the window it was scheduled in — never after a
  // watermark taken later.
  Engine engine(ClusterConfig::ForTesting());

  PlanStats before;
  before.plan_id = engine.TakePlanId();
  before.name = "with-early-jobs";
  before.nodes.emplace_back();
  before.nodes[0].label = "n0";

  // One real job below the watermark, attributed to `before`.
  auto run_one = [&engine]() {
    auto r = engine.Run<int64_t, int64_t, int64_t, int64_t>(
        "since-job", 10,
        [](int64_t i, ShuffleEmitter<int64_t, int64_t>* em) {
          em->Emit(i % 2, 1);
        },
        [](const int64_t& k, std::vector<int64_t>& vs,
           OutputEmitter<int64_t, int64_t>* out) {
          out->Emit(k, static_cast<int64_t>(vs.size()));
        });
    ASSERT_OK(r.status());
  };
  run_one();
  before.nodes[0].job_ids = {engine.pipeline().jobs.back().job_id};
  engine.RecordPlan(before);

  PlanStats empty;
  empty.plan_id = engine.TakePlanId();
  empty.name = "no-jobs-anywhere";
  empty.nodes.emplace_back();
  empty.nodes[0].label = "failed-before-first-job";
  empty.nodes[0].status = "failed";
  engine.RecordPlan(empty);

  const int64_t watermark = engine.NextJobId();
  const int64_t plan_watermark = engine.NextPlanId();
  run_one();
  PlanStats after;
  after.plan_id = engine.TakePlanId();
  after.name = "with-late-jobs";
  after.nodes.emplace_back();
  after.nodes[0].label = "n0";
  after.nodes[0].job_ids = {engine.pipeline().jobs.back().job_id};
  engine.RecordPlan(after);

  PipelineStats slice = engine.PipelineSince(watermark, plan_watermark);
  ASSERT_EQ(slice.jobs.size(), 1u);
  EXPECT_GE(slice.jobs[0].job_id, watermark);
  ASSERT_EQ(slice.plans.size(), 1u);
  EXPECT_EQ(slice.plans[0].name, "with-late-jobs");

  // A window opened before the job-less plan was scheduled holds it: the
  // plan belongs to the window it ran in, jobs or not.
  PipelineStats all = engine.PipelineSince(0, 0);
  EXPECT_EQ(all.jobs.size(), 2u);
  ASSERT_EQ(all.plans.size(), 3u);
  EXPECT_EQ(all.plans[0].name, "with-early-jobs");
  EXPECT_EQ(all.plans[1].name, "no-jobs-anywhere");
  EXPECT_EQ(all.plans[2].name, "with-late-jobs");
}

// ---------------------------------------------------------------------------
// Concurrent Run() calls on one engine keep their outputs and stats apart.

TEST(EngineStats, ConcurrentRunsProduceCorrectOutputs) {
  std::vector<int64_t> words_a = RandomWords(20000, 94, 64);
  std::vector<int64_t> words_b = RandomWords(20000, 95, 64);
  ClusterConfig config = ClusterConfig::ForTesting();
  Engine reference(config);
  std::map<int64_t, int64_t> want_a = WordCount(&reference, words_a, "ref-a");
  std::map<int64_t, int64_t> want_b = WordCount(&reference, words_b, "ref-b");

  for (int round = 0; round < 4; ++round) {
    Engine engine(config);
    std::map<int64_t, int64_t> got_a;
    std::map<int64_t, int64_t> got_b;
    std::thread ta([&] { got_a = WordCount(&engine, words_a, "conc-a"); });
    std::thread tb([&] { got_b = WordCount(&engine, words_b, "conc-b"); });
    ta.join();
    tb.join();
    EXPECT_EQ(got_a, want_a) << "round " << round;
    EXPECT_EQ(got_b, want_b) << "round " << round;
    EXPECT_EQ(engine.pipeline().NumJobs(), 2);
    for (const JobStats& job : engine.pipeline().jobs) {
      EXPECT_EQ(job.map_output_records, 20000) << job.name;
    }
    EXPECT_EQ(engine.memory().used(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Driver-level tracing.

TEST(EngineStats, ParafacTraceRecordsEveryIteration) {
  Rng rng(96);
  SparseTensor x = haten2::testing::RandomSparseTensor({12, 10, 8}, 200, &rng);
  ClusterConfig config = ClusterConfig::ForTesting();
  Engine engine(config);
  DecompositionTrace trace;
  Haten2Options options;
  options.max_iterations = 3;
  options.tolerance = 0.0;
  options.trace = &trace;
  Result<KruskalModel> model = Haten2ParafacAls(&engine, x, 3, options);
  ASSERT_OK(model.status());
  ASSERT_EQ(static_cast<int>(trace.iterations.size()), model->iterations);
  size_t traced_jobs = 0;
  for (size_t i = 0; i < trace.iterations.size(); ++i) {
    const IterationStats& it = trace.iterations[i];
    EXPECT_EQ(it.iteration, static_cast<int>(i) + 1);
    EXPECT_GE(it.wall_seconds, 0.0);
    EXPECT_TRUE(it.has_fit);
    EXPECT_EQ(it.lambda.size(), 3u);
    EXPECT_GT(it.pipeline.NumJobs(), 0);
    traced_jobs += it.pipeline.jobs.size();
  }
  // Every engine job belongs to exactly one traced iteration.
  EXPECT_EQ(traced_jobs, engine.pipeline().jobs.size());
  EXPECT_DOUBLE_EQ(trace.iterations.back().fit, model->fit);
}

TEST(EngineStats, FailedIterationIsStillTraced) {
  Rng rng(97);
  SparseTensor x =
      haten2::testing::RandomSparseTensor({30, 30, 30}, 2000, &rng);
  ClusterConfig config = ClusterConfig::ForTesting();
  config.total_shuffle_memory_bytes = 32 * 1024;  // guaranteed o.o.m.
  Engine engine(config);
  DecompositionTrace trace;
  Haten2Options options;
  options.max_iterations = 3;
  options.trace = &trace;
  Result<KruskalModel> model = Haten2ParafacAls(&engine, x, 3, options);
  ASSERT_FALSE(model.ok());
  EXPECT_TRUE(model.status().IsResourceExhausted());
  ASSERT_EQ(trace.iterations.size(), 1u);  // died in the first iteration
  const IterationStats& it = trace.iterations[0];
  EXPECT_FALSE(it.has_fit);
  EXPECT_GT(it.pipeline.NumJobs(), 0);  // the jobs that ran are recorded
  EXPECT_EQ(it.pipeline.NumFailedJobs(), 1);
  EXPECT_EQ(it.pipeline.jobs.back().failure, "oom");
}

// ---------------------------------------------------------------------------
// JSON export.

TEST(EngineStats, StatsReportJsonIsValidAndComplete) {
  Rng rng(98);
  SparseTensor x = haten2::testing::RandomSparseTensor({12, 10, 8}, 200, &rng);
  ClusterConfig config = ClusterConfig::ForTesting();
  Engine engine(config);
  DecompositionTrace trace;
  Haten2Options options;
  options.max_iterations = 2;
  options.tolerance = 0.0;
  options.trace = &trace;
  Result<KruskalModel> model = Haten2ParafacAls(&engine, x, 3, options);
  ASSERT_OK(model.status());

  StatsReport report;
  report.tool = "engine_stats_test";
  report.method = "parafac";
  report.variant = "dri";
  report.dataset = "random";
  report.wall_seconds = 1.5;
  report.has_fit = true;
  report.fit = model->fit;
  report.iterations_run = model->iterations;
  report.cluster = &config;
  report.trace = &trace;
  report.pipeline = &engine.pipeline();
  std::string json = StatsReportToJson(report);

  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  for (const char* key :
       {"\"schema\":\"haten2-stats-v13\"", "\"status\":\"ok\"",
        "\"cluster\"", "\"iterations\"", "\"pipeline\"", "\"phases\"",
        "\"map_seconds\"", "\"shuffle_seconds\"", "\"reduce_seconds\"",
        "\"fit\"", "\"lambda\"", "\"simulated_seconds\"",
        "\"max_intermediate_records\"", "\"tasks\"", "\"partitions\"",
        "\"job_id\"", "\"plan_id\"", "\"plans\"", "\"scheduled_concurrency\"",
        "\"critical_path_seconds\"", "\"invariant_cache_hits\"",
        "\"max_concurrent_jobs\"", "\"node_retries\"",
        "\"node_backoff_seconds\"", "\"max_node_attempts\"",
        // stats-v5: the plan aggregate with backoff.
        "\"critical_path_with_backoff_seconds\"",
        // stats-v7: contraction-strategy additions.
        "\"contraction\"", "\"incore_memory_mb\"",
        "\"incore_nodes\"", "\"dataflow_nodes\"",
        // stats-v8: sketched-Tucker additions (cluster knobs; the
        // per-iteration "sketch" object only appears for sketched runs and
        // is covered in sketched_tucker_test.cc).
        "\"tucker_sketch\"", "\"sketch_size\"",
        "\"exact_polish_sweeps\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  // stats-v12 removed the straggler layer's keys and the spill alias;
  // stats-v13 removed every spill key.
  for (const char* key :
       {"\"speculation\"", "\"speculated\"", "\"won\"",
        "\"wasted_seconds\"", "\"speculated_tasks\"",
        "\"speculation_won\"", "\"speculation_wasted_seconds\"",
        "\"speculative_execution\"", "\"speculation_slowstart\"",
        "\"straggler_jitter\"", "\"straggler_jitter_seed\"",
        "\"machine_profiles\"", "\"speed_factor\"",
        "\"failure_multiplier\"", "\"bytes\"", "\"spill\"",
        "\"raw_bytes\"", "\"compressed_bytes\"", "\"compression_ratio\"",
        "\"total_spilled_records\"", "\"total_spilled_raw_bytes\"",
        "\"total_spilled_compressed_bytes\"",
        "\"spill_threshold_records\"", "\"spill_compression\"",
        "io_error"}) {
    EXPECT_EQ(json.find(key), std::string::npos) << "still present " << key;
  }
}

TEST(EngineStats, JobJsonEscapesHostileNames) {
  JobStats job;
  job.name = "we\"ird\\job\nname\ttab\x01" "end";
  JsonWriter w;
  JobStatsToJson(job, /*cost=*/nullptr, &w);
  std::string json = w.str();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\\\"ird"), std::string::npos);
  EXPECT_NE(json.find("\\\\job"), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\\t"), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
}

TEST(EngineStats, JsonWriterNonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginObject()
      .Key("nan")
      .Value(std::numeric_limits<double>::quiet_NaN())
      .Key("inf")
      .Value(std::numeric_limits<double>::infinity())
      .Key("ok")
      .Value(2.5)
      .EndObject();
  EXPECT_EQ(w.str(), "{\"nan\":null,\"inf\":null,\"ok\":2.5}");
  EXPECT_TRUE(JsonChecker(w.str()).Valid());
}

TEST(EngineStats, WriteStatsJsonFileRoundTrips) {
  ClusterConfig config = ClusterConfig::ForTesting();
  Engine engine(config);
  WordCount(&engine, RandomWords(1000, 99));
  StatsReport report;
  report.tool = "engine_stats_test";
  report.status = "ok";
  report.pipeline = &engine.pipeline();
  std::string path =
      std::string(::testing::TempDir()) + "/haten2_stats_report.json";
  ASSERT_OK(WriteStatsJsonFile(report, path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_TRUE(JsonChecker(content).Valid()) << content;
  EXPECT_NE(content.find("haten2-stats-v13"), std::string::npos);
}

}  // namespace
}  // namespace haten2
