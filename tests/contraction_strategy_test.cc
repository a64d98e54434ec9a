// Tests for the two contraction paths: selection via
// ClusterConfig::contraction, the SliceBlocks output contract (ascending
// slice_ids, one slice_ids.size() x BlockSize() row block) for every
// variant and merge kind, bit-identity of the three ALS drivers between the
// dataflow and in-core paths on superdiagonal tensors, the stats surface
// (per-node strategy, incore/dataflow node counters, in-core plans in every
// iteration's trace), and the ContractCache content-fingerprint regression
// (in-place tensor rebuilds must invalidate, not alias).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "core/contract.h"
#include "core/nonnegative_tucker.h"
#include "core/parafac.h"
#include "core/tucker.h"
#include "core/variant.h"
#include "mapreduce/engine.h"
#include "mapreduce/stats_json.h"
#include "tensor/delta_log.h"
#include "test_util.h"
#include "util/random.h"

namespace haten2 {
namespace {

using ::haten2::testing::RandomSparseTensor;

// Every fiber and slice of a superdiagonal tensor holds exactly one nonzero,
// so the in-core kernels' accumulation-order contract guarantees
// bit-identical contraction values to the dataflow merges (see
// linalg/sparse_kernels.h). SliceBlocks stores its rows in ascending slice
// order on both paths, so every downstream float sum is then bit-identical
// too.
SparseTensor SuperdiagonalTensor(int64_t n, int order, Rng* rng) {
  std::vector<int64_t> dims(static_cast<size_t>(order), n);
  Result<SparseTensor> r = SparseTensor::Create(dims);
  HATEN2_CHECK(r.ok()) << r.status().ToString();
  SparseTensor t = std::move(r).value();
  std::vector<int64_t> idx(static_cast<size_t>(order));
  for (int64_t i = 0; i < n; ++i) {
    for (auto& c : idx) c = i;
    t.AppendUnchecked(idx.data(), rng->Uniform(0.5, 1.5));
  }
  t.Canonicalize();
  return t;
}

ClusterConfig ConfigWithStrategy(const std::string& strategy) {
  ClusterConfig config = ClusterConfig::ForTesting();
  config.contraction = strategy;
  return config;
}

// ---------------------------------------------------------------------------
// Strategy selection.
// ---------------------------------------------------------------------------

TEST(ContractionSelection, ForcedStrategiesAreRecordedInPipeline) {
  Rng rng(31);
  SparseTensor x = SuperdiagonalTensor(8, 3, &rng);
  std::vector<DenseMatrix> owned;
  std::vector<const DenseMatrix*> factors;
  for (int m = 0; m < 3; ++m) {
    owned.push_back(DenseMatrix::RandomNormal(8, 2, &rng));
  }
  for (auto& f : owned) factors.push_back(&f);

  Engine dataflow(ConfigWithStrategy("dataflow"));
  ASSERT_OK(MultiModeContract(&dataflow, x, factors, 0, MergeKind::kPairwise,
                              Variant::kDri)
                .status());
  EXPECT_GT(dataflow.pipeline().DataflowNodes(), 0);
  EXPECT_EQ(dataflow.pipeline().IncoreNodes(), 0);

  Engine incore(ConfigWithStrategy("incore"));
  ASSERT_OK(MultiModeContract(&incore, x, factors, 0, MergeKind::kPairwise,
                              Variant::kDri)
                .status());
  EXPECT_EQ(incore.pipeline().IncoreNodes(), 1);
  EXPECT_EQ(incore.pipeline().DataflowNodes(), 0);
  // The in-core path runs no MapReduce jobs at all.
  EXPECT_EQ(incore.pipeline().jobs.size(), 0u);
}

// The output contract every producer keeps: strictly ascending slice ids
// and one flat row block of slice_ids.size() x BlockSize().
void ExpectSortedFlatRows(const SliceBlocks& y, const std::string& where) {
  EXPECT_EQ(std::adjacent_find(y.slice_ids.begin(), y.slice_ids.end(),
                               std::greater_equal<int64_t>()),
            y.slice_ids.end())
      << where << ": slice_ids not strictly ascending";
  EXPECT_EQ(y.values.rows(), static_cast<int64_t>(y.slice_ids.size()))
      << where;
  EXPECT_EQ(y.values.cols(), y.BlockSize()) << where;
}

TEST(ContractionSelection, InCoreMatchesDataflowValuesOnRandomTensors) {
  // On general tensors the two paths agree to rounding (the bit-identity
  // contract only covers singleton fibers); pin them together within 1e-9.
  Rng rng(33);
  SparseTensor x = RandomSparseTensor({9, 7, 8}, 60, &rng);
  std::vector<DenseMatrix> owned;
  std::vector<const DenseMatrix*> factors;
  for (int m = 0; m < 3; ++m) {
    owned.push_back(DenseMatrix::RandomNormal(x.dim(m), 3, &rng));
  }
  for (auto& f : owned) factors.push_back(&f);

  for (Variant variant : kAllVariants) {
    for (MergeKind kind : {MergeKind::kPairwise, MergeKind::kCross,
                           MergeKind::kSketchFused}) {
      for (int free_mode = 0; free_mode < 3; ++free_mode) {
        const std::string where =
            std::string(VariantName(variant)) + " kind " +
            std::to_string(static_cast<int>(kind)) + " mode " +
            std::to_string(free_mode);
        Engine dataflow(ConfigWithStrategy("dataflow"));
        Engine incore(ConfigWithStrategy("incore"));
        Result<SliceBlocks> want = MultiModeContract(
            &dataflow, x, factors, free_mode, kind, variant);
        Result<SliceBlocks> got = MultiModeContract(&incore, x, factors,
                                                    free_mode, kind, variant);
        ASSERT_OK(want.status());
        ASSERT_OK(got.status());
        ExpectSortedFlatRows(*want, "dataflow " + where);
        ExpectSortedFlatRows(*got, "incore " + where);
        EXPECT_LT(got->ToDenseMatrix().MaxAbsDiff(want->ToDenseMatrix()),
                  1e-9)
            << where;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Driver bit-identity: dataflow vs incore vs auto, fixed seeds.
// ---------------------------------------------------------------------------

Haten2Options FixedSeedOptions() {
  Haten2Options options;
  options.max_iterations = 3;
  options.tolerance = 0.0;
  options.seed = 4711;
  return options;
}

TEST(ContractionBitIdentity, ParafacAls) {
  Rng rng(8101);
  SparseTensor x = SuperdiagonalTensor(12, 3, &rng);
  Haten2Options options = FixedSeedOptions();

  Engine reference(ConfigWithStrategy("dataflow"));
  Result<KruskalModel> want = Haten2ParafacAls(&reference, x, 3, options);
  ASSERT_OK(want.status());

  Engine engine(ConfigWithStrategy("incore"));
  Result<KruskalModel> got = Haten2ParafacAls(&engine, x, 3, options);
  ASSERT_OK(got.status());
  EXPECT_EQ(got->lambda, want->lambda);
  EXPECT_EQ(got->fit_history, want->fit_history);
  EXPECT_DOUBLE_EQ(got->fit, want->fit);
  for (size_t m = 0; m < 3; ++m) {
    EXPECT_DOUBLE_EQ(got->factors[m].MaxAbsDiff(want->factors[m]), 0.0)
        << "mode " << m;
  }
  EXPECT_GT(engine.pipeline().IncoreNodes(), 0);
}

TEST(ContractionBitIdentity, TuckerAls) {
  Rng rng(8102);
  SparseTensor x = SuperdiagonalTensor(10, 3, &rng);
  Haten2Options options = FixedSeedOptions();
  options.max_iterations = 2;

  Engine reference(ConfigWithStrategy("dataflow"));
  Result<TuckerModel> want =
      Haten2TuckerAls(&reference, x, {3, 3, 2}, options);
  ASSERT_OK(want.status());

  Engine engine(ConfigWithStrategy("incore"));
  Result<TuckerModel> got = Haten2TuckerAls(&engine, x, {3, 3, 2}, options);
  ASSERT_OK(got.status());
  EXPECT_DOUBLE_EQ(got->fit, want->fit);
  EXPECT_DOUBLE_EQ(got->core.MaxAbsDiff(want->core), 0.0);
  for (size_t m = 0; m < 3; ++m) {
    EXPECT_DOUBLE_EQ(got->factors[m].MaxAbsDiff(want->factors[m]), 0.0)
        << "mode " << m;
  }
  EXPECT_GT(engine.pipeline().IncoreNodes(), 0);
}

TEST(ContractionBitIdentity, NonnegativeTuckerAls) {
  Rng rng(8103);
  SparseTensor x = SuperdiagonalTensor(9, 3, &rng);
  Haten2Options options = FixedSeedOptions();
  options.max_iterations = 2;

  Engine reference(ConfigWithStrategy("dataflow"));
  Result<TuckerModel> want =
      Haten2NonnegativeTuckerAls(&reference, x, {2, 2, 2}, options);
  ASSERT_OK(want.status());

  Engine engine(ConfigWithStrategy("incore"));
  Result<TuckerModel> got =
      Haten2NonnegativeTuckerAls(&engine, x, {2, 2, 2}, options);
  ASSERT_OK(got.status());
  EXPECT_DOUBLE_EQ(got->fit, want->fit);
  EXPECT_DOUBLE_EQ(got->core.MaxAbsDiff(want->core), 0.0);
  for (size_t m = 0; m < 3; ++m) {
    EXPECT_DOUBLE_EQ(got->factors[m].MaxAbsDiff(want->factors[m]), 0.0)
        << "mode " << m;
  }
  EXPECT_GT(engine.pipeline().IncoreNodes(), 0);
}

// ---------------------------------------------------------------------------
// haten2-stats-v15 surface.
// ---------------------------------------------------------------------------

TEST(ContractionStats, V7RecordsStrategyAndTimings) {
  Rng rng(8105);
  SparseTensor x = SuperdiagonalTensor(8, 3, &rng);
  Haten2Options options = FixedSeedOptions();
  options.max_iterations = 1;

  Engine engine(ConfigWithStrategy("incore"));
  ASSERT_OK(Haten2ParafacAls(&engine, x, 2, options).status());

  const PipelineStats& pipeline = engine.pipeline();
  EXPECT_GT(pipeline.IncoreNodes(), 0);
  EXPECT_EQ(pipeline.DataflowNodes(), 0);

  JsonWriter w;
  PipelineStatsToJson(pipeline, /*cost=*/nullptr, &w);
  std::string json = w.str();
  EXPECT_NE(json.find("\"incore_nodes\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"dataflow_nodes\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"contraction_strategy\":\"incore\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"layout_build_seconds\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"evaluate_seconds\""), std::string::npos) << json;

  // The dataflow path records its strategy but no layout timings.
  Engine dataflow(ConfigWithStrategy("dataflow"));
  ASSERT_OK(Haten2ParafacAls(&dataflow, x, 2, options).status());
  JsonWriter w2;
  PipelineStatsToJson(dataflow.pipeline(), /*cost=*/nullptr, &w2);
  std::string json2 = w2.str();
  EXPECT_NE(json2.find("\"contraction_strategy\":\"dataflow\""),
            std::string::npos)
      << json2;
  EXPECT_EQ(json2.find("\"layout_build_seconds\""), std::string::npos)
      << json2;
}

TEST(ContractionStats, EveryTraceIterationHoldsItsInCorePlans) {
  // Regression: iterations used to select plans by job-id watermark, and
  // an in-core plan runs no engine job, so every iteration's pipeline came
  // out empty while the top-level pipeline held all the in-core nodes.
  Rng rng(8109);
  SparseTensor x = RandomSparseTensor({12, 10, 8}, 120, &rng);
  Haten2Options options = FixedSeedOptions();
  DecompositionTrace trace;
  options.trace = &trace;

  Engine engine(ConfigWithStrategy("incore"));
  ASSERT_OK(Haten2ParafacAls(&engine, x, 3, options).status());
  ASSERT_EQ(trace.iterations.size(), 3u);
  for (const IterationStats& it : trace.iterations) {
    EXPECT_EQ(it.pipeline.IncoreNodes(), x.order())
        << "iteration " << it.iteration;
  }
  EXPECT_EQ(engine.pipeline().IncoreNodes(), 3 * x.order());
}

// ---------------------------------------------------------------------------
// ContractCache fingerprint keying (the aliasing-hazard regression).
// ---------------------------------------------------------------------------

TEST(ContractCacheFingerprint, InPlaceRebuildInvalidatesRecords) {
  Rng rng(8106);
  SparseTensor x = RandomSparseTensor({6, 5, 4}, 20, &rng);

  ContractCache cache;
  auto first = cache.Records(/*engine=*/nullptr, x);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 0);
  auto again = cache.Records(/*engine=*/nullptr, x);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(again.get(), first.get());

  // Rebuild the tensor *in place*: same object, same address, same nnz,
  // different content. The old address+nnz key aliased this to a hit and
  // served stale records; the fingerprint must miss and re-decode.
  double old_value = x.value(0);
  x.set_value(0, old_value + 1.0);
  auto rebuilt = cache.Records(/*engine=*/nullptr, x);
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_NE(rebuilt.get(), first.get());
  EXPECT_DOUBLE_EQ((*rebuilt)[0].value, old_value + 1.0);
}

TEST(ContractCacheFingerprint, LayoutCacheHitsPerFreeModeAndInvalidates) {
  Rng rng(8107);
  SparseTensor x = RandomSparseTensor({6, 5, 4}, 20, &rng);

  ContractCache cache;
  Result<std::shared_ptr<const CsfLayout>> l0 = cache.Layout(x, 0);
  ASSERT_OK(l0.status());
  EXPECT_EQ(cache.layout_misses(), 1);
  Result<std::shared_ptr<const CsfLayout>> l0_again = cache.Layout(x, 0);
  ASSERT_OK(l0_again.status());
  EXPECT_EQ(cache.layout_hits(), 1);
  EXPECT_EQ(l0_again->get(), l0->get());

  // A different free mode is a distinct layout: miss, not alias.
  Result<std::shared_ptr<const CsfLayout>> l1 = cache.Layout(x, 1);
  ASSERT_OK(l1.status());
  EXPECT_EQ(cache.layout_misses(), 2);
  EXPECT_NE(l1->get(), l0->get());

  // In-place rebuild drops *all* cached layouts (and records).
  x.set_value(0, x.value(0) * 2.0);
  Result<std::shared_ptr<const CsfLayout>> l0_rebuilt = cache.Layout(x, 0);
  ASSERT_OK(l0_rebuilt.status());
  EXPECT_EQ(cache.layout_misses(), 3);
  EXPECT_NE(l0_rebuilt->get(), l0->get());

  EXPECT_TRUE(cache.Layout(x, kMaxMrOrder).status().IsInvalidArgument());
}

TEST(ContractCacheFingerprint, DistinctTensorsDoNotAlias) {
  Rng rng(8108);
  SparseTensor a = RandomSparseTensor({6, 5, 4}, 20, &rng);
  SparseTensor b = RandomSparseTensor({6, 5, 4}, 20, &rng);

  ContractCache cache;
  auto ra = cache.Records(/*engine=*/nullptr, a);
  auto rb = cache.Records(/*engine=*/nullptr, b);
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_NE(ra.get(), rb.get());
}

// ---------------------------------------------------------------------------
// The cache's key is SparseTensor::generation(): the stamp contract, checked
// against TensorFingerprint as the full-content reference.
// ---------------------------------------------------------------------------

TEST(ContractCacheStamp, ContentChangesAlwaysTakeANewGeneration) {
  const std::vector<int64_t> dims = {6, 5, 4};
  Rng rng(8110);
  std::vector<SparseTensor> pool;
  for (int i = 0; i < 3; ++i) {
    pool.push_back(RandomSparseTensor(dims, 20, &rng));
  }
  std::vector<uint64_t> fingerprints;
  std::vector<uint64_t> generations;
  for (const SparseTensor& t : pool) {
    fingerprints.push_back(TensorFingerprint(t));
    generations.push_back(t.generation());
  }
  auto pick = [&](int64_t n) {
    return static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(n)));
  };
  auto random_entry = [&](std::vector<int64_t>* idx) {
    for (size_t m = 0; m < dims.size(); ++m) (*idx)[m] = pick(dims[m]);
  };
  // A moved-from slot is a 0-way tensor; reuse it by assigning a shape.
  auto revive = [&](SparseTensor* t) {
    if (t->order() == 0) *t = SparseTensor::Create(dims).value();
  };
  ContractCache cache;
  std::vector<int64_t> idx(dims.size());
  for (int step = 0; step < 400; ++step) {
    const size_t i = static_cast<size_t>(pick(3));
    const size_t j = (i + 1 + static_cast<size_t>(pick(2))) % 3;
    SparseTensor& t = pool[i];
    const int64_t op = pick(7);
    switch (op) {
      case 0: {  // Append / AppendUnchecked, then Canonicalize.
        revive(&t);
        const int64_t n = pick(3);
        for (int64_t k = 0; k < n; ++k) {
          random_entry(&idx);
          if (k % 2 == 0) {
            ASSERT_OK(t.Append(idx.data(), t.order(), rng.Uniform(-1, 1)));
          } else {
            t.AppendUnchecked(idx.data(), rng.Uniform(-1, 1));
          }
        }
        t.Canonicalize();
        break;
      }
      case 1:  // set_value, sometimes rewriting the same value.
        if (t.nnz() > 0) {
          const int64_t e = pick(t.nnz());
          t.set_value(e, rng.Bernoulli(0.5) ? t.value(e) : t.value(e) + 0.5);
        }
        break;
      case 2:  // Copy-assignment.
        t = pool[j];
        break;
      case 3:  // Move-assignment; the source slot is reused later.
        t = std::move(pool[j]);
        break;
      case 4:  // Binarized.
        t = t.Binarized();
        break;
      case 5: {  // MergeDelta.
        revive(&t);
        SparseTensor delta = SparseTensor::Create(dims).value();
        random_entry(&idx);
        delta.AppendUnchecked(idx.data(), rng.Uniform(-1, 1));
        delta.Canonicalize();
        ASSERT_OK(MergeDelta(&t, delta));
        break;
      }
      default:  // Copy-construct over the slot.
        t = SparseTensor(pool[j]);
        break;
    }
    for (size_t k = 0; k < pool.size(); ++k) {
      ASSERT_TRUE(pool[k].canonical());
      const uint64_t fp = TensorFingerprint(pool[k]);
      if (fp != fingerprints[k]) {
        ASSERT_NE(pool[k].generation(), generations[k])
            << "step " << step << " op " << op << " slot " << k;
      }
      fingerprints[k] = fp;
      generations[k] = pool[k].generation();
    }
    for (size_t a = 0; a < pool.size(); ++a) {
      for (size_t b = a + 1; b < pool.size(); ++b) {
        if (pool[a].generation() == pool[b].generation()) {
          ASSERT_EQ(fingerprints[a], fingerprints[b]) << "step " << step;
        }
      }
    }
    // Whatever the cache keyed before, it serves the current content.
    const SparseTensor& probe = pool[static_cast<size_t>(pick(3))];
    if (probe.order() == 3) {
      ASSERT_TRUE(*cache.Records(/*engine=*/nullptr, probe) ==
                  TensorToRecords(probe))
          << "stale records at step " << step;
    }
  }
  EXPECT_GT(cache.hits(), 0);
}

TEST(ContractCacheStamp, CopiesHitAndNonCanonicalTensorsNeverDo) {
  Rng rng(8111);
  SparseTensor x = RandomSparseTensor({6, 5, 4}, 20, &rng);
  ContractCache cache;
  ASSERT_OK(cache.Layout(x, 0).status());

  // A copy holds equal content under the same stamp: a hit.
  SparseTensor copy = x;
  EXPECT_EQ(copy.generation(), x.generation());
  ASSERT_OK(cache.Layout(copy, 0).status());
  EXPECT_EQ(cache.layout_hits(), 1);

  // Appends take no stamp (the load path stays free) but clear
  // canonical(), so the edited copy misses even with the keyed stamp, and
  // it does not become the key.
  const int64_t idx[3] = {5, 4, 3};
  copy.AppendUnchecked(idx, 7.0);
  ASSERT_FALSE(copy.canonical());
  Result<std::shared_ptr<const CsfLayout>> edited = cache.Layout(copy, 0);
  ASSERT_OK(edited.status());
  EXPECT_EQ(cache.layout_misses(), 2);
  EXPECT_EQ((*edited)->values.size(), static_cast<size_t>(copy.nnz()));
  auto unkeyed = cache.Records(/*engine=*/nullptr, copy);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(unkeyed->size(), static_cast<size_t>(copy.nnz()));
  ASSERT_OK(cache.Layout(x, 0).status());
  EXPECT_EQ(cache.layout_hits(), 2);
  auto keyed = cache.Records(/*engine=*/nullptr, x);
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_EQ(cache.Records(/*engine=*/nullptr, x).get(), keyed.get());
  EXPECT_EQ(cache.hits(), 1);

  // Canonicalize takes a new stamp: the edited copy is a different tensor.
  copy.Canonicalize();
  EXPECT_NE(copy.generation(), x.generation());
  ASSERT_OK(cache.Layout(copy, 0).status());
  EXPECT_EQ(cache.layout_misses(), 3);
}

}  // namespace
}  // namespace haten2
