// Tests for shuffle spilling: output equivalence with and without spills,
// resident-memory bounding, spill counters, interaction with combiners and
// decompositions, cleanup, torn-write recovery, and the cost model's
// spill-aware disk term.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <thread>

#include "core/contract.h"
#include "core/parafac.h"
#include "mapreduce/cost_model.h"
#include "mapreduce/engine.h"
#include "test_util.h"

namespace haten2 {
namespace {

using ::haten2::testing::PerTestDir;
using ::haten2::testing::SpillFilesIn;

std::map<int64_t, int64_t> WordCount(Engine* engine,
                                     const std::vector<int64_t>& words) {
  auto result = engine->Run<int64_t, int64_t, int64_t, int64_t>(
      "wc", static_cast<int64_t>(words.size()),
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

TEST(Spill, OutputIdenticalWithAndWithoutSpilling) {
  std::vector<int64_t> words;
  Rng rng(821);
  for (int i = 0; i < 20000; ++i) {
    words.push_back(static_cast<int64_t>(rng.UniformInt(uint64_t{64})));
  }
  ClusterConfig plain = ClusterConfig::ForTesting();
  Engine reference(plain);
  std::map<int64_t, int64_t> want = WordCount(&reference, words);

  ClusterConfig spilling = plain;
  spilling.spill_directory = PerTestDir();
  spilling.spill_threshold_records = 64;  // force many spills
  Engine engine(spilling);
  std::map<int64_t, int64_t> got = WordCount(&engine, words);
  EXPECT_EQ(got, want);
  // Spills happened and were counted...
  EXPECT_GT(engine.pipeline().jobs[0].spilled_records, 0);
  EXPECT_EQ(engine.pipeline().jobs[0].map_output_records, 20000);
  // ...and every spill file was removed afterwards.
  EXPECT_EQ(SpillFilesIn(spilling.spill_directory), 0);
}

TEST(Spill, NoSpillBelowThreshold) {
  ClusterConfig config = ClusterConfig::ForTesting();
  config.spill_directory = PerTestDir();
  config.spill_threshold_records = 1 << 20;
  Engine engine(config);
  std::vector<int64_t> words(100, 1);
  WordCount(&engine, words);
  EXPECT_EQ(engine.pipeline().jobs[0].spilled_records, 0);
}

TEST(Spill, CombinerAppliesToResidentRecordsOnly) {
  // With spilling, pre-spilled records bypass the end-of-task combiner but
  // the reducer still aggregates them; results are unchanged.
  std::vector<int64_t> words(5000, 42);
  ClusterConfig config = ClusterConfig::ForTesting();
  config.spill_directory = PerTestDir();
  config.spill_threshold_records = 128;
  Engine engine(config);
  auto result = engine.Run<int64_t, int64_t, int64_t, int64_t>(
      "wc-combine", static_cast<int64_t>(words.size()),
      [&words](int64_t i, ShuffleEmitter<int64_t, int64_t>* em) {
        em->Emit(words[static_cast<size_t>(i)], 1);
      },
      [](const int64_t& w, std::vector<int64_t>& vs,
         OutputEmitter<int64_t, int64_t>* out) {
        int64_t sum = 0;
        for (int64_t v : vs) sum += v;
        out->Emit(w, sum);
      },
      [](const int64_t& a, const int64_t& b) { return a + b; });
  ASSERT_OK(result.status());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].second, 5000);
}

TEST(Spill, SpilledRecordsStillCountAgainstBudget) {
  // Spilling bounds resident memory but not the intermediate-data budget:
  // the o.o.m. semantics (the paper's failure mode) are unchanged.
  ClusterConfig config = ClusterConfig::ForTesting();
  config.spill_directory = PerTestDir();
  config.spill_threshold_records = 64;
  config.total_shuffle_memory_bytes = 16 * 1024;
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
  EXPECT_EQ(SpillFilesIn(config.spill_directory), 0);  // cleaned up
  EXPECT_EQ(engine.memory().used(), 0u);
}

TEST(Spill, DecompositionUnchangedUnderSpilling) {
  Rng rng(822);
  SparseTensor x =
      haten2::testing::RandomSparseTensor({15, 12, 10}, 300, &rng);
  Haten2Options options;
  options.max_iterations = 3;
  options.tolerance = 0.0;

  ClusterConfig plain = ClusterConfig::ForTesting();
  Engine reference(plain);
  Result<KruskalModel> want = Haten2ParafacAls(&reference, x, 3, options);
  ASSERT_OK(want.status());

  ClusterConfig spilling = plain;
  spilling.spill_directory = PerTestDir();
  spilling.spill_threshold_records = 32;
  Engine engine(spilling);
  Result<KruskalModel> got = Haten2ParafacAls(&engine, x, 3, options);
  ASSERT_OK(got.status());
  EXPECT_DOUBLE_EQ(got->fit, want->fit);
  for (size_t m = 0; m < 3; ++m) {
    EXPECT_DOUBLE_EQ(got->factors[m].MaxAbsDiff(want->factors[m]), 0.0);
  }
  int64_t total_spilled = 0;
  for (const JobStats& j : engine.pipeline().jobs) {
    total_spilled += j.spilled_records;
  }
  EXPECT_GT(total_spilled, 0);
  EXPECT_EQ(SpillFilesIn(spilling.spill_directory), 0);
}

TEST(Spill, AbortedJobCleansUpSpillFiles) {
  // Some tasks spill, another exhausts its retries: the abort path must
  // remove every spill file that was written.
  ClusterConfig config = ClusterConfig::ForTesting();
  config.num_machines = 8;  // several map tasks
  config.spill_directory = PerTestDir();
  config.spill_threshold_records = 16;
  config.task_failure_probability = 0.4;
  config.max_task_attempts = 1;  // any sampled failure aborts the job
  config.failure_seed = 5;
  Engine engine(config);
  std::vector<int64_t> words(5000, 1);
  auto result = engine.Run<int64_t, int64_t, int64_t, int64_t>(
      "abort-spill", static_cast<int64_t>(words.size()),
      [&words](int64_t i, ShuffleEmitter<int64_t, int64_t>* em) {
        em->Emit(words[static_cast<size_t>(i)], 1);
      },
      [](const int64_t& w, std::vector<int64_t>& vs,
         OutputEmitter<int64_t, int64_t>* out) {
        out->Emit(w, static_cast<int64_t>(vs.size()));
      });
  // With p=0.4 over 8 tasks, an abort is near-certain for this seed.
  if (!result.ok()) {
    EXPECT_TRUE(result.status().IsAborted());
  }
  EXPECT_EQ(SpillFilesIn(config.spill_directory), 0);
  EXPECT_EQ(engine.memory().used(), 0u);
}

TEST(Spill, CostModelChargesNoDiskWithoutSpilledBytes) {
  // Regression: the model used to charge every map task its share of
  // map_output_bytes as disk I/O even when nothing was spilled. The disk
  // term must come from what each task actually wrote.
  ClusterConfig config = ClusterConfig::ForTesting();
  JobStats job;
  job.map_task_records = {1000, 1000};
  job.map_task_attempts = {1, 1};
  job.map_output_bytes = 0;  // isolate the map disk term
  const double base = CostModel(config).SimulateJob(job);
  EXPECT_DOUBLE_EQ(base, 1000 * config.map_seconds_per_record);

  JobStats spilled = job;
  spilled.map_task_spilled_bytes = {1 << 20, 0};
  const double with_disk = CostModel(config).SimulateJob(spilled);
  EXPECT_DOUBLE_EQ(with_disk - base,
                   static_cast<double>(1 << 20) /
                       config.disk_bytes_per_second);
}

TEST(Spill, SimulatedTimeReflectsActualSpillTraffic) {
  // Same workload, spilling off vs on: only the spilling run pays map-side
  // disk time, so its simulated makespan is strictly larger.
  std::vector<int64_t> words;
  Rng rng(823);
  for (int i = 0; i < 20000; ++i) {
    words.push_back(static_cast<int64_t>(rng.UniformInt(uint64_t{64})));
  }
  ClusterConfig plain = ClusterConfig::ForTesting();
  Engine in_memory(plain);
  WordCount(&in_memory, words);

  ClusterConfig spilling = plain;
  spilling.spill_directory = PerTestDir();
  spilling.spill_threshold_records = 64;
  Engine engine(spilling);
  WordCount(&engine, words);

  EXPECT_EQ(in_memory.pipeline().TotalSpilledCompressedBytes(), 0u);
  EXPECT_GT(engine.pipeline().TotalSpilledCompressedBytes(), 0u);
  const double without_spill =
      CostModel(plain).SimulatePipeline(in_memory.pipeline());
  const double with_spill =
      CostModel(spilling).SimulatePipeline(engine.pipeline());
  EXPECT_GT(with_spill, without_spill);
}

TEST(Spill, CompressionLowersSimulatedTime) {
  // delta_varint shrinks the on-disk runs, and the cost model charges disk
  // bandwidth on actual bytes, so the compressed run simulates faster.
  std::vector<int64_t> words;
  Rng rng(824);
  for (int i = 0; i < 20000; ++i) {
    words.push_back(static_cast<int64_t>(rng.UniformInt(uint64_t{64})));
  }
  ClusterConfig raw = ClusterConfig::ForTesting();
  raw.spill_directory = PerTestDir();
  raw.spill_threshold_records = 64;
  ClusterConfig packed = raw;
  packed.spill_compression = SpillCompression::kDeltaVarint;

  Engine raw_engine(raw);
  std::map<int64_t, int64_t> want = WordCount(&raw_engine, words);
  Engine packed_engine(packed);
  EXPECT_EQ(WordCount(&packed_engine, words), want);

  EXPECT_LT(packed_engine.pipeline().TotalSpilledCompressedBytes(),
            packed_engine.pipeline().TotalSpilledRawBytes());
  EXPECT_LT(CostModel(packed).SimulatePipeline(packed_engine.pipeline()),
            CostModel(raw).SimulatePipeline(raw_engine.pipeline()));
}

/// Leaves freed heap holding `pattern`: blocks of the sizes a spilling
/// job's buffers take are written byte by byte and freed, on this thread
/// and on short-lived threads (whose malloc arenas later threads reuse), so
/// bytes a later allocation never initializes read as `pattern`.
void ScribbleFreedHeap(unsigned char pattern) {
  auto scribble = [pattern] {
    std::vector<std::unique_ptr<unsigned char[]>> blocks;
    for (size_t size = 16; size <= (size_t{1} << 16); size *= 2) {
      for (int k = 0; k < 32; ++k) {
        blocks.emplace_back(new unsigned char[size]);
        volatile unsigned char* bytes = blocks.back().get();
        for (size_t i = 0; i < size; ++i) bytes[i] = pattern;
      }
    }
  };
  scribble();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(scribble);
  for (std::thread& t : threads) t.join();
}

TEST(Spill, DriSpillCountersRepeatAcrossRuns) {
  // delta_varint codes each spilled record's first 8 key bytes. The IMHP
  // key once carried 4 uninitialized padding bytes there, so the coded
  // size — and the CostModel's disk term with it — followed whatever the
  // heap held. Three runs in one process, each after the freed heap was
  // scribbled with a different byte, must agree on every job's spill
  // counters and on the simulated seconds.
  Rng rng(825);
  SparseTensor x =
      haten2::testing::RandomSparseTensor({60, 50, 40}, 3000, &rng);
  std::vector<DenseMatrix> owned;
  for (int m = 0; m < 3; ++m) {
    owned.push_back(DenseMatrix::RandomNormal(x.dim(m), 4, &rng));
  }
  std::vector<const DenseMatrix*> factors;
  for (const DenseMatrix& f : owned) factors.push_back(&f);
  ClusterConfig config = ClusterConfig::ForTesting();
  config.contraction = "dataflow";
  config.spill_directory = PerTestDir();
  config.spill_threshold_records = 64;
  config.spill_compression = SpillCompression::kDeltaVarint;

  std::vector<PipelineStats> runs;
  for (unsigned char pattern : {0x00, 0xa5, 0xff}) {
    ScribbleFreedHeap(pattern);
    Engine engine(config);
    ASSERT_OK(MultiModeContract(&engine, x, factors, /*free_mode=*/0,
                                MergeKind::kCross, Variant::kDri)
                  .status());
    runs.push_back(engine.pipeline());
  }
  ASSERT_GT(runs[0].TotalSpilledCompressedBytes(), 0u);
  const double want = CostModel(config).SimulatePipeline(runs[0]);
  for (size_t r = 1; r < runs.size(); ++r) {
    SCOPED_TRACE("run " + std::to_string(r));
    ASSERT_EQ(runs[r].jobs.size(), runs[0].jobs.size());
    for (size_t j = 0; j < runs[0].jobs.size(); ++j) {
      const JobStats& a = runs[0].jobs[j];
      const JobStats& b = runs[r].jobs[j];
      EXPECT_EQ(b.name, a.name);
      EXPECT_EQ(b.spilled_records, a.spilled_records) << a.name;
      EXPECT_EQ(b.spilled_compressed_bytes, a.spilled_compressed_bytes)
          << a.name;
      EXPECT_EQ(b.map_task_spilled_bytes, a.map_task_spilled_bytes)
          << a.name;
    }
    EXPECT_EQ(CostModel(config).SimulatePipeline(runs[r]), want);
  }
  EXPECT_EQ(SpillFilesIn(config.spill_directory), 0);
}

TEST(Spill, TornFirstSpillWriteLeavesNoOrphan) {
  // The very first spill write tears: nothing was ever committed, so the
  // partial file must be removed at failure time — spilled_counts_ is still
  // 0 for that partition and RemoveAllSpills would skip it.
  ClusterConfig config = ClusterConfig::ForTesting();
  config.spill_directory = PerTestDir();
  config.spill_threshold_records = 64;
  config.inject_spill_failure_after_bytes = 1;
  Engine engine(config);
  std::vector<int64_t> words(5000, 7);  // one hot key, one partition file
  auto result = engine.Run<int64_t, int64_t, int64_t, int64_t>(
      "torn-first", static_cast<int64_t>(words.size()),
      [&words](int64_t i, ShuffleEmitter<int64_t, int64_t>* em) {
        em->Emit(words[static_cast<size_t>(i)], 1);
      },
      [](const int64_t& w, std::vector<int64_t>& vs,
         OutputEmitter<int64_t, int64_t>* out) {
        out->Emit(w, static_cast<int64_t>(vs.size()));
      });
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError()) << result.status().ToString();
  EXPECT_NE(result.status().message().find(".spill"), std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(SpillFilesIn(config.spill_directory), 0);
  EXPECT_EQ(engine.memory().used(), 0u);
}

TEST(Spill, TornLaterSpillWriteRollsBackAndCleansUp) {
  // A later append tears after earlier runs committed: the file is rolled
  // back to the committed boundary, the counts survive, and the failure
  // path removes the file. Nothing with partition count 0 is leaked.
  using Record = std::pair<int64_t, int64_t>;
  ClusterConfig config = ClusterConfig::ForTesting();
  config.spill_directory = PerTestDir();
  config.spill_threshold_records = 64;
  // One committed run per emitter (64 records), tear on the second.
  config.inject_spill_failure_after_bytes =
      static_cast<int64_t>(64 * sizeof(Record) + 1);
  Engine engine(config);
  std::vector<int64_t> words(5000, 7);
  auto result = engine.Run<int64_t, int64_t, int64_t, int64_t>(
      "torn-later", static_cast<int64_t>(words.size()),
      [&words](int64_t i, ShuffleEmitter<int64_t, int64_t>* em) {
        em->Emit(words[static_cast<size_t>(i)], 1);
      },
      [](const int64_t& w, std::vector<int64_t>& vs,
         OutputEmitter<int64_t, int64_t>* out) {
        out->Emit(w, static_cast<int64_t>(vs.size()));
      });
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError()) << result.status().ToString();
  EXPECT_EQ(SpillFilesIn(config.spill_directory), 0);
  EXPECT_EQ(engine.memory().used(), 0u);
  // The job post-mortem still reports the committed spill traffic.
  ASSERT_EQ(engine.pipeline().jobs.size(), 1u);
  EXPECT_EQ(engine.pipeline().jobs[0].failure, "io_error");
}

TEST(Spill, DrainSpillSurfacesShortReadWithPathAndOffset) {
  // Truncate a raw spill file behind the emitter's back: DrainSpill must
  // return an IOError naming the file and offset, keep its counts so
  // cleanup still works, and must not invoke the consumer past the tear.
  using Record = std::pair<int64_t, int64_t>;
  std::string prefix = PerTestDir() + "/drain_direct";
  ShuffleEmitter<int64_t, int64_t> em(/*num_partitions=*/1, nullptr, prefix,
                                      /*spill_threshold=*/4);
  for (int64_t i = 0; i < 8; ++i) em.Emit(1, i);  // two runs of 4
  ASSERT_EQ(em.SpilledRecords(0), 8);
  const std::string path = em.SpillPath(0);
  std::filesystem::resize_file(path, 6 * sizeof(Record) + 3);

  int64_t consumed = 0;
  Status status = em.DrainSpill(0, [&consumed](const Record&) { ++consumed; });
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsIOError());
  EXPECT_NE(status.message().find(path), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("offset"), std::string::npos);
  EXPECT_EQ(consumed, 6);
  // Counts survive the error, so cleanup still removes the file.
  EXPECT_EQ(em.SpilledRecords(0), 8);
  em.RemoveAllSpills();
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(Spill, DrainSpillRejectsCorruptCompressedBlock) {
  std::string prefix = PerTestDir() + "/drain_corrupt";
  ShuffleEmitter<int64_t, int64_t> em(
      /*num_partitions=*/1, nullptr, prefix, /*spill_threshold=*/4,
      SpillCompression::kDeltaVarint);
  for (int64_t i = 0; i < 4; ++i) em.Emit(1, i);
  ASSERT_EQ(em.SpilledRecords(0), 4);
  const std::string path = em.SpillPath(0);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.put(static_cast<char>(0x5A));  // clobber the block magic
  }
  Status status = em.DrainSpill(
      0, [](const std::pair<int64_t, int64_t>&) {});
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsIOError());
  EXPECT_NE(status.message().find(path), std::string::npos);
  EXPECT_NE(status.message().find("offset 0"), std::string::npos)
      << status.ToString();
  em.RemoveAllSpills();
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(Spill, DrainSpillRejectsForgedPayloadLength) {
  // A block header claiming a 2^40-byte payload in a real spill file: the
  // drain must check it against the bytes the emitter committed and fail
  // with an IOError naming the file and block offset, not resize a buffer
  // to it.
  std::string prefix = PerTestDir() + "/drain_forged";
  // Spills append: drop a file an aborted earlier run may have left.
  std::filesystem::remove(prefix + "_p0.spill");
  ShuffleEmitter<int64_t, int64_t> em(
      /*num_partitions=*/1, nullptr, prefix, /*spill_threshold=*/4,
      SpillCompression::kDeltaVarint);
  for (int64_t i = 0; i < 8; ++i) em.Emit(i % 3, i);  // two blocks
  ASSERT_EQ(em.SpilledRecords(0), 8);
  const std::string path = em.SpillPath(0);
  // The second block starts where the first ends; forge its payload_bytes
  // field (header offset 24).
  uint64_t second = 0;
  {
    std::ifstream in(path, std::ios::binary);
    char header[kSpillBlockHeaderBytes];
    in.read(header, sizeof(header));
    auto parsed = ParseSpillBlockHeader(header, sizeof(header), path);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    second = kSpillBlockHeaderBytes + parsed->payload_bytes;
  }
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    const uint64_t forged = uint64_t{1} << 40;
    f.seekp(static_cast<std::streamoff>(second + 24));
    f.write(reinterpret_cast<const char*>(&forged), sizeof(forged));
    ASSERT_TRUE(f.good());
  }
  int64_t consumed = 0;
  Status status = em.DrainSpill(
      0, [&consumed](const std::pair<int64_t, int64_t>&) { ++consumed; });
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsIOError());
  EXPECT_NE(status.message().find(path), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("offset " + std::to_string(second)),
            std::string::npos)
      << status.ToString();
  EXPECT_EQ(consumed, 4);  // the intact first block drained
  em.RemoveAllSpills();
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(Spill, UnwritableSpillDirectoryFailsLoudly) {
  ClusterConfig config = ClusterConfig::ForTesting();
  config.spill_directory = "/nonexistent/spills";
  config.spill_threshold_records = 8;
  Engine engine(config);
  std::vector<int64_t> words(1000, 1);
  auto result = engine.Run<int64_t, int64_t, int64_t, int64_t>(
      "badspill", static_cast<int64_t>(words.size()),
      [&words](int64_t i, ShuffleEmitter<int64_t, int64_t>* em) {
        em->Emit(words[static_cast<size_t>(i)], 1);
      },
      [](const int64_t& w, std::vector<int64_t>& vs,
         OutputEmitter<int64_t, int64_t>* out) {
        out->Emit(w, static_cast<int64_t>(vs.size()));
      });
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError()) << result.status().ToString();
}

}  // namespace
}  // namespace haten2
