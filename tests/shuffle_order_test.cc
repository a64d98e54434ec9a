// Tests for the sort-merge shuffle's order contract and what it buys:
//   - SortMergeShuffle: reducers see keys ascending, each key's values in
//     (map task, emission) order, and job output is partition-ascending with
//     keys ascending within each partition — at any map-task and thread
//     count;
//   - StableSortByKey: the radix path for integer keys orders records
//     exactly as std::stable_sort does;
//   - LayoutIndependence: the DRI and DRN contractions give bit-identical
//     blocks whatever the map-task, reduce-task and thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/contract.h"
#include "mapreduce/engine.h"
#include "mapreduce/hash.h"
#include "test_util.h"

namespace haten2 {
namespace {

using KeyValues = std::vector<std::pair<int64_t, std::vector<int64_t>>>;

constexpr int64_t kRecords = 500;
constexpr int64_t kKeys = 37;

/// Emits two records per input index i, with values 2i and 2i+1: values
/// ascend in emission order within a map task, and across tasks in task
/// order (tasks read contiguous chunks).
void OrderReader(int64_t i, ShuffleEmitter<int64_t, int64_t>* em) {
  em->Emit((i * 7919) % kKeys, 2 * i);
  em->Emit((i * 31 + 5) % kKeys, 2 * i + 1);
}

/// Returns each key's values as it received them.
void OrderReducer(const int64_t& key, std::vector<int64_t>& values,
                  OutputEmitter<int64_t, std::vector<int64_t>>* out) {
  out->Emit(key, values);
}

Result<KeyValues> RunOrderJob(Engine* engine) {
  return engine->Run<int64_t, int64_t, int64_t, std::vector<int64_t>>(
      "order-contract", kRecords, OrderReader, OrderReducer);
}

/// The map-task and thread counts the contract must hold under.
struct Setting {
  std::string label;
  ClusterConfig config;
};

std::vector<Setting> Settings(int num_reduce_tasks) {
  std::vector<Setting> out;
  for (int tasks : {1, 7}) {
    for (int threads : {1, 4}) {
      ClusterConfig c = ClusterConfig::ForTesting();
      c.num_map_tasks = tasks;
      c.num_reduce_tasks = num_reduce_tasks;
      c.num_threads = threads;
      out.push_back({std::to_string(tasks) + " tasks, " +
                         std::to_string(threads) + " threads",
                     c});
    }
  }
  return out;
}

TEST(SortMergeShuffle, KeysAscendAndValuesKeepTaskEmissionOrder) {
  KeyValues first;
  for (const Setting& s : Settings(/*num_reduce_tasks=*/1)) {
    SCOPED_TRACE(s.label);
    Engine engine(s.config);
    Result<KeyValues> got = RunOrderJob(&engine);
    ASSERT_OK(got.status());
    ASSERT_EQ(static_cast<int64_t>(got->size()), kKeys);
    int64_t total = 0;
    for (size_t k = 0; k < got->size(); ++k) {
      const auto& [key, values] = (*got)[k];
      if (k > 0) {
        EXPECT_LT((*got)[k - 1].first, key) << "keys out of order";
      }
      for (size_t v = 1; v < values.size(); ++v) {
        EXPECT_LT(values[v - 1], values[v])
            << "key " << key << ": values out of (task, emission) order";
      }
      total += static_cast<int64_t>(values.size());
    }
    EXPECT_EQ(total, 2 * kRecords);
    if (first.empty()) {
      first = *got;
    } else {
      EXPECT_EQ(*got, first);
    }
  }
}

TEST(SortMergeShuffle, OutputIsPartitionAscendingThenKeyAscending) {
  constexpr int kPartitions = 5;
  auto partition = [](int64_t key) {
    return ShuffleHash<int64_t>()(key) % kPartitions;
  };
  KeyValues first;
  for (const Setting& s : Settings(kPartitions)) {
    SCOPED_TRACE(s.label);
    Engine engine(s.config);
    Result<KeyValues> got = RunOrderJob(&engine);
    ASSERT_OK(got.status());
    ASSERT_EQ(static_cast<int64_t>(got->size()), kKeys);
    for (size_t k = 1; k < got->size(); ++k) {
      const int64_t prev = (*got)[k - 1].first;
      const int64_t key = (*got)[k].first;
      ASSERT_LE(partition(prev), partition(key)) << "partitions out of order";
      if (partition(prev) == partition(key)) {
        EXPECT_LT(prev, key) << "keys out of order within a partition";
      }
    }
    // Run's output is RunPartitioned's partitions, concatenated.
    auto parts = engine.RunPartitioned<int64_t, int64_t, int64_t,
                                       std::vector<int64_t>>(
        "order-contract", kRecords, OrderReader, OrderReducer);
    ASSERT_OK(parts.status());
    ASSERT_EQ(parts->size(), static_cast<size_t>(kPartitions));
    KeyValues joined;
    for (const auto& part : *parts) {
      joined.insert(joined.end(), part.begin(), part.end());
    }
    EXPECT_EQ(joined, *got);
    if (first.empty()) {
      first = *got;
    } else {
      EXPECT_EQ(*got, first);
    }
  }
}

TEST(SortMergeShuffle, CombinerFoldsEachTaskInEmissionOrder) {
  // An order-sensitive fold: each task contributes fold(v1, v2, ...) over
  // its values for the key in emission order, and the reducer sees one
  // combined value per task, in task order.
  auto fold = [](const int64_t& a, const int64_t& b) { return a * 3 + b; };
  ClusterConfig c = ClusterConfig::ForTesting();
  c.num_map_tasks = 7;
  c.num_reduce_tasks = 3;
  Engine engine(c);
  auto got = engine.Run<int64_t, int64_t, int64_t, std::vector<int64_t>>(
      "order-combine", kRecords,
      [](int64_t i, ShuffleEmitter<int64_t, int64_t>* em) {
        em->Emit(i % 5, i % 4);
      },
      [](const int64_t& key, std::vector<int64_t>& values,
         OutputEmitter<int64_t, std::vector<int64_t>>* out) {
        out->Emit(key, values);
      },
      fold);
  ASSERT_OK(got.status());

  const int64_t chunk = (kRecords + 6) / 7;
  ASSERT_EQ(got->size(), 5u);
  for (const auto& [key, values] : *got) {
    std::vector<int64_t> want;
    for (int64_t begin = 0; begin < kRecords; begin += chunk) {
      bool any = false;
      int64_t acc = 0;
      for (int64_t i = begin; i < std::min(begin + chunk, kRecords); ++i) {
        if (i % 5 != key) continue;
        acc = any ? fold(acc, i % 4) : i % 4;
        any = true;
      }
      if (any) want.push_back(acc);
    }
    EXPECT_EQ(values, want) << "key " << key;
  }
}

// ---------------------------------------------------------------------------
// StableSortByKey: the radix path against std::stable_sort.
// ---------------------------------------------------------------------------

/// Sorts `run` with StableSortByKey and with std::stable_sort by key; each
/// record's value is its input position, so equal records in equal order
/// means equal keys kept their input order.
template <typename K>
void ExpectMatchesStdStableSort(const std::vector<K>& keys) {
  std::vector<std::pair<K, int64_t>> run;
  for (size_t i = 0; i < keys.size(); ++i) {
    run.emplace_back(keys[i], static_cast<int64_t>(i));
  }
  std::vector<std::pair<K, int64_t>> want = run;
  std::stable_sort(want.begin(), want.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  StableSortByKey(&run);
  EXPECT_EQ(run, want) << keys.size() << " keys";
}

/// Sizes from empty and single-record runs up to a reduce partition's.
std::vector<size_t> SortSizes() {
  return {0, 1, 2, 63, 64, 65, 1000, 100000};
}

TEST(StableSortByKey, Int64KeysMatchStdStableSort) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Rng rng(9101);
  for (size_t n : SortSizes()) {
    std::vector<int64_t> full, dups, high_constant;
    for (size_t i = 0; i < n; ++i) {
      // Full range, extremes included.
      const uint64_t pick = rng.UniformInt(uint64_t{8});
      full.push_back(pick == 0 ? kMin : pick == 1 ? kMax
                                      : rng.UniformInt(kMin, kMax));
      // Heavy duplicates, negatives among them.
      dups.push_back(rng.UniformInt(int64_t{-3}, int64_t{3}));
      // Only the low two bytes vary.
      high_constant.push_back(int64_t{0x1234560000000000} +
                              rng.UniformInt(int64_t{0}, int64_t{0xffff}));
    }
    ExpectMatchesStdStableSort(full);
    ExpectMatchesStdStableSort(dups);
    ExpectMatchesStdStableSort(high_constant);
  }
}

TEST(StableSortByKey, Int64PairKeysMatchStdStableSort) {
  using Key = std::pair<int64_t, int64_t>;
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Rng rng(9102);
  for (size_t n : SortSizes()) {
    std::vector<Key> full, dups, streams;
    for (size_t i = 0; i < n; ++i) {
      full.emplace_back(rng.UniformInt(kMin, kMax),
                        rng.UniformInt(kMin, kMax));
      dups.emplace_back(rng.UniformInt(int64_t{-1}, int64_t{1}),
                        rng.UniformInt(int64_t{-2}, int64_t{2}));
      // The IMHP job's (stream, index along mode) shape.
      streams.emplace_back(rng.UniformInt(int64_t{0}, int64_t{2}),
                           rng.UniformInt(int64_t{0}, int64_t{19999}));
    }
    ExpectMatchesStdStableSort(full);
    ExpectMatchesStdStableSort(dups);
    ExpectMatchesStdStableSort(streams);
  }
}

// ---------------------------------------------------------------------------
// Layout independence of the two-phase contractions.
// ---------------------------------------------------------------------------

struct Layout {
  int map_tasks;
  int reduce_tasks;
  int threads;
};

/// Evaluates one DRI/DRN contraction of a fixed tensor under every layout,
/// and requires every result to equal the first bit for bit.
void ExpectLayoutIndependent(Variant variant, MergeKind kind) {
  Rng rng(4242);
  SparseTensor x =
      haten2::testing::RandomSparseTensor({14, 11, 9}, 320, &rng);
  const std::vector<int64_t> cols =
      kind == MergeKind::kCross ? std::vector<int64_t>{2, 3, 4}
                                : std::vector<int64_t>{3, 3, 3};
  std::vector<DenseMatrix> owned;
  for (int m = 0; m < 3; ++m) {
    owned.push_back(DenseMatrix::RandomNormal(
        x.dim(m), cols[static_cast<size_t>(m)], &rng));
  }
  std::vector<const DenseMatrix*> factors;
  for (const DenseMatrix& f : owned) factors.push_back(&f);

  const Layout layouts[] = {{1, 1, 1}, {7, 5, 2}, {16, 16, 4}};
  std::vector<SliceBlocks> reference;  // per free mode, from the first run
  for (const Layout& layout : layouts) {
    SCOPED_TRACE("map=" + std::to_string(layout.map_tasks) +
                 " reduce=" + std::to_string(layout.reduce_tasks) +
                 " threads=" + std::to_string(layout.threads));
    ClusterConfig c = ClusterConfig::ForTesting();
    c.contraction = "dataflow";
    c.num_map_tasks = layout.map_tasks;
    c.num_reduce_tasks = layout.reduce_tasks;
    c.num_threads = layout.threads;
    Engine engine(c);
    for (int free_mode = 0; free_mode < 3; ++free_mode) {
      Result<SliceBlocks> y =
          MultiModeContract(&engine, x, factors, free_mode, kind, variant);
      ASSERT_OK(y.status());
      if (reference.size() < 3) {
        reference.push_back(std::move(y).value());
        continue;
      }
      const SliceBlocks& want = reference[static_cast<size_t>(free_mode)];
      EXPECT_EQ(y->slice_ids, want.slice_ids) << "free mode " << free_mode;
      // Bit-identical: compare the doubles' bytes, not their values.
      ASSERT_EQ(y->values.data().size(), want.values.data().size());
      EXPECT_EQ(std::memcmp(y->values.data().data(),
                            want.values.data().data(),
                            want.values.data().size() * sizeof(double)),
                0)
          << "free mode " << free_mode << ": max abs diff "
          << y->values.MaxAbsDiff(want.values);
    }
  }
}

// The names keep their "AndBackends" suffix so results stay comparable by
// name across commits; the engine has one backend.
TEST(LayoutIndependence, DriCrossBitIdenticalAcrossLayoutsAndBackends) {
  ExpectLayoutIndependent(Variant::kDri, MergeKind::kCross);
}

TEST(LayoutIndependence, DriPairwiseBitIdenticalAcrossLayoutsAndBackends) {
  ExpectLayoutIndependent(Variant::kDri, MergeKind::kPairwise);
}

TEST(LayoutIndependence, DrnCrossBitIdenticalAcrossLayoutsAndBackends) {
  ExpectLayoutIndependent(Variant::kDrn, MergeKind::kCross);
}

TEST(LayoutIndependence, DrnPairwiseBitIdenticalAcrossLayoutsAndBackends) {
  ExpectLayoutIndependent(Variant::kDrn, MergeKind::kPairwise);
}

}  // namespace
}  // namespace haten2
