// The incremental half of the refit loop (ISSUE 10): PatchCsfLayout's
// array-identity contract against fresh builds (one edit, and seeded chains
// of epochs), ContractCache::ApplyDelta dirty-slice accounting (including
// the every-slice-dirty degenerate), the full-content-fingerprint
// regression for same-nnz in-place edits, IncrementalRefitSession's
// bit-identity with a refit from scratch, and checkpoint warm starts that
// skip torn checkpoints.

#include "core/incremental_refit.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/contract.h"
#include "linalg/sparse_kernels.h"
#include "mapreduce/engine.h"
#include "tensor/delta_log.h"
#include "tensor/sparse_tensor.h"
#include "test_util.h"
#include "util/random.h"

namespace haten2 {
namespace {

namespace fs = std::filesystem;
using haten2::testing::RandomSparseTensor;

std::string FreshDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "/" + name;
  fs::remove_all(dir);
  return dir;
}

/// Field-by-field equality of two layouts — the "array-identical" contract
/// PatchCsfLayout documents, which is what makes patched refits
/// bit-identical to refits from scratch.
void ExpectLayoutsIdentical(const CsfLayout& a, const CsfLayout& b) {
  EXPECT_EQ(a.free_mode, b.free_mode);
  EXPECT_EQ(a.num_streams, b.num_streams);
  EXPECT_EQ(a.cmodes, b.cmodes);
  EXPECT_EQ(a.slice_ids, b.slice_ids);
  EXPECT_EQ(a.slice_fiber_begin, b.slice_fiber_begin);
  EXPECT_EQ(a.fiber_entry_begin, b.fiber_entry_begin);
  EXPECT_EQ(a.fiber_coords, b.fiber_coords);
  EXPECT_EQ(a.entry_inner, b.entry_inner);
  ASSERT_EQ(a.values.size(), b.values.size());
  for (size_t i = 0; i < a.values.size(); ++i) {
    // Exact comparison: patched values must be the same bits.
    EXPECT_EQ(a.values[i], b.values[i]) << "value index " << i;
  }
}

/// A delta confined to a couple of slices per mode.
SparseTensor SliceLocalDelta(const std::vector<int64_t>& dims) {
  Result<SparseTensor> d = SparseTensor::Create(dims);
  HATEN2_CHECK(d.ok());
  HATEN2_CHECK(d->Append({1, 2, 0}, 0.75).ok());
  HATEN2_CHECK(d->Append({1, 0, 3}, -1.25).ok());
  HATEN2_CHECK(d->Append({3, 2, 3}, 2.5).ok());
  d->Canonicalize();
  return std::move(d).value();
}

// ---------------------------------------------------------------------------
// PatchCsfLayout: kernel-level array identity.
// ---------------------------------------------------------------------------

TEST(PatchCsfLayout, ArrayIdenticalToFreshBuildAfterSliceLocalEdit) {
  Rng rng(9001);
  SparseTensor base = RandomSparseTensor({8, 7, 6}, 60, &rng);
  SparseTensor delta = SliceLocalDelta(base.dims());
  SparseTensor merged = base;
  ASSERT_OK(MergeDelta(&merged, delta));

  for (int m = 0; m < 3; ++m) {
    Result<CsfLayout> old_layout = BuildCsfLayout(base, m);
    ASSERT_OK(old_layout.status());
    std::vector<int64_t> dirty;
    for (int64_t e = 0; e < delta.nnz(); ++e) {
      dirty.push_back(delta.IndexPtr(e)[m]);
    }
    CsfPatchCounters counters;
    Result<CsfLayout> patched =
        PatchCsfLayout(*old_layout, merged, dirty, &counters);
    ASSERT_TRUE(patched.ok())
        << "free mode " << m << ": " << patched.status().ToString();
    Result<CsfLayout> fresh = BuildCsfLayout(merged, m);
    ASSERT_OK(fresh.status());
    ExpectLayoutsIdentical(*patched, *fresh);
    // The delta touched at most 3 slices per mode, so most slices of an
    // 8/7/6-wide mode must have been salvaged verbatim.
    EXPECT_GT(counters.slices_reused, 0) << "free mode " << m;
    EXPECT_LE(counters.slices_rebuilt, 3) << "free mode " << m;
  }
}

TEST(PatchCsfLayout, UnderDeclaredDirtySetIsRejectedNotSilentlyWrong) {
  Rng rng(9002);
  SparseTensor base = RandomSparseTensor({6, 6, 6}, 40, &rng);
  SparseTensor delta = SliceLocalDelta(base.dims());
  SparseTensor merged = base;
  ASSERT_OK(MergeDelta(&merged, delta));

  Result<CsfLayout> old_layout = BuildCsfLayout(base, 0);
  ASSERT_OK(old_layout.status());
  // Claim nothing changed: the patch's nnz reconciliation must notice the
  // mismatch and refuse rather than emit a layout that drops the new
  // entries.
  Result<CsfLayout> patched =
      PatchCsfLayout(*old_layout, merged, /*dirty_slices=*/{}, nullptr);
  EXPECT_FALSE(patched.ok());
}

/// Number of ids in sorted `a` that are absent from sorted `b`.
int64_t CountMissing(const std::vector<int64_t>& a,
                     const std::vector<int64_t>& b) {
  std::vector<int64_t> missing;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(missing));
  return static_cast<int64_t>(missing.size());
}

// Chains 40 seeded epochs per order: each mode's layout is only ever
// patched, and after every epoch it must equal a fresh build. An epoch
// cancels every entry of one slice exactly (emptying it), appends at random
// coordinates, and appends into a slice that is empty.
TEST(PatchCsfLayout, SeededEpochsStayArrayIdenticalToFreshBuilds) {
  const std::vector<std::vector<int64_t>> shapes = {
      {12, 10}, {9, 8, 7}, {6, 5, 5, 4}};
  for (const std::vector<int64_t>& dims : shapes) {
    const int order = static_cast<int>(dims.size());
    SCOPED_TRACE(::testing::Message() << "order " << order);
    Rng rng(9100 + static_cast<uint64_t>(order));
    SparseTensor x = RandomSparseTensor(dims, 3 * dims[0], &rng);
    std::vector<CsfLayout> layouts;
    for (int m = 0; m < order; ++m) {
      Result<CsfLayout> built = BuildCsfLayout(x, m);
      ASSERT_OK(built.status());
      layouts.push_back(std::move(built).value());
    }
    const auto random_mode = [&] {
      return static_cast<int>(rng.UniformInt(static_cast<uint64_t>(order)));
    };
    const auto random_coords = [&] {
      std::vector<int64_t> idx(dims.size());
      for (size_t m = 0; m < dims.size(); ++m) {
        idx[m] = static_cast<int64_t>(
            rng.UniformInt(static_cast<uint64_t>(dims[m])));
      }
      return idx;
    };

    int64_t emptied = 0;
    int64_t filled = 0;
    for (int epoch = 0; epoch < 40; ++epoch) {
      SCOPED_TRACE(::testing::Message() << "epoch " << epoch);
      Result<SparseTensor> delta = SparseTensor::Create(dims);
      ASSERT_OK(delta.status());
      const int cancel_mode = random_mode();
      const int64_t cancel_slice =
          random_coords()[static_cast<size_t>(cancel_mode)];
      for (int64_t e = 0; e < x.nnz(); ++e) {
        if (x.IndexPtr(e)[cancel_mode] == cancel_slice) {
          ASSERT_OK(delta->Append(x.IndexPtr(e), order, -x.value(e)));
        }
      }
      for (int a = 0; a < 3; ++a) {
        std::vector<int64_t> idx = random_coords();
        ASSERT_OK(delta->Append(idx.data(), order, rng.Uniform(0.5, 1.5)));
      }
      const int fill_mode = random_mode();
      const std::vector<int64_t>& present =
          layouts[static_cast<size_t>(fill_mode)].slice_ids;
      for (int64_t i = 0; i < dims[static_cast<size_t>(fill_mode)]; ++i) {
        if (std::binary_search(present.begin(), present.end(), i)) continue;
        std::vector<int64_t> idx = random_coords();
        idx[static_cast<size_t>(fill_mode)] = i;
        ASSERT_OK(delta->Append(idx.data(), order, rng.Uniform(0.5, 1.5)));
        break;
      }
      delta->Canonicalize();
      ASSERT_OK(MergeDelta(&x, *delta));

      for (int m = 0; m < order; ++m) {
        std::vector<int64_t> dirty;
        for (int64_t e = 0; e < delta->nnz(); ++e) {
          dirty.push_back(delta->IndexPtr(e)[m]);
        }
        CsfLayout& layout = layouts[static_cast<size_t>(m)];
        Result<CsfLayout> patched = PatchCsfLayout(layout, x, dirty);
        ASSERT_TRUE(patched.ok())
            << "free mode " << m << ": " << patched.status().ToString();
        Result<CsfLayout> fresh = BuildCsfLayout(x, m);
        ASSERT_OK(fresh.status());
        ExpectLayoutsIdentical(*patched, *fresh);
        emptied += CountMissing(layout.slice_ids, patched->slice_ids);
        filled += CountMissing(patched->slice_ids, layout.slice_ids);
        layout = std::move(patched).value();
      }
    }
    // Both slice transitions the patch must handle actually happened.
    EXPECT_GT(emptied, 0);
    EXPECT_GT(filled, 0);
  }
}

// ---------------------------------------------------------------------------
// ContractCache::ApplyDelta: dirty-slice invalidation and accounting.
// ---------------------------------------------------------------------------

TEST(ContractCacheDelta, PatchesCachedLayoutsAndKeepsThemHot) {
  Rng rng(9003);
  SparseTensor base = RandomSparseTensor({8, 7, 6}, 60, &rng);
  SparseTensor delta = SliceLocalDelta(base.dims());
  SparseTensor merged = base;
  ASSERT_OK(MergeDelta(&merged, delta));

  ContractCache cache;
  for (int m = 0; m < 3; ++m) ASSERT_OK(cache.Layout(base, m).status());
  ASSERT_EQ(cache.layout_misses(), 3);

  ASSERT_OK(cache.ApplyDelta(merged, delta));
  EXPECT_EQ(cache.delta_patches(), 1);
  EXPECT_GT(cache.dirty_slices(), 0);
  EXPECT_EQ(cache.layout_full_invalidations(), 0);
  EXPECT_GT(cache.layout_slices_reused(), 0);

  // The patched slots key to the merged tensor: every mode is a hit, and
  // each served layout is array-identical to a fresh build.
  for (int m = 0; m < 3; ++m) {
    Result<std::shared_ptr<const CsfLayout>> served = cache.Layout(merged, m);
    ASSERT_OK(served.status());
    Result<CsfLayout> fresh = BuildCsfLayout(merged, m);
    ASSERT_OK(fresh.status());
    ExpectLayoutsIdentical(**served, *fresh);
  }
  EXPECT_EQ(cache.layout_hits(), 3);
  EXPECT_EQ(cache.layout_misses(), 3);
}

TEST(ContractCacheDelta, EverySliceDirtyCollapsesToFullInvalidation) {
  Rng rng(9004);
  SparseTensor base = RandomSparseTensor({4, 4, 4}, 30, &rng);
  // A superdiagonal delta touches every slice of every mode.
  Result<SparseTensor> d = SparseTensor::Create(base.dims());
  ASSERT_TRUE(d.ok());
  for (int64_t i = 0; i < 4; ++i) {
    ASSERT_OK(d->Append({i, i, i}, 1.0 + static_cast<double>(i)));
  }
  d->Canonicalize();
  SparseTensor merged = base;
  ASSERT_OK(MergeDelta(&merged, *d));

  ContractCache cache;
  for (int m = 0; m < 3; ++m) ASSERT_OK(cache.Layout(base, m).status());
  ASSERT_OK(cache.ApplyDelta(merged, *d));
  // Patching would rebuild every slice anyway, so each cached slot must
  // collapse to a plain invalidation and the next lookup is an honest miss.
  EXPECT_EQ(cache.layout_full_invalidations(), 3);
  ASSERT_OK(cache.Layout(merged, 0).status());
  EXPECT_EQ(cache.layout_misses(), 4);
  EXPECT_EQ(cache.layout_hits(), 0);
}

TEST(ContractCacheDelta, ApplyDeltaOnEmptyCacheJustKeysTheMergedTensor) {
  Rng rng(9005);
  SparseTensor base = RandomSparseTensor({5, 5, 5}, 20, &rng);
  SparseTensor delta = SliceLocalDelta(base.dims());
  SparseTensor merged = base;
  ASSERT_OK(MergeDelta(&merged, delta));

  ContractCache cache;
  ASSERT_OK(cache.ApplyDelta(merged, delta));
  // The cache now keys the merged tensor: the first Layout call misses
  // (nothing was cached to patch), the second hits.
  ASSERT_OK(cache.Layout(merged, 0).status());
  ASSERT_OK(cache.Layout(merged, 0).status());
  EXPECT_EQ(cache.layout_misses(), 1);
  EXPECT_EQ(cache.layout_hits(), 1);
}

// ---------------------------------------------------------------------------
// Fingerprint regression (ISSUE 10 satellite): the sampled fingerprint
// missed same-nnz edits at positions off its sample grid and served stale
// contractions. Full-content hashing must catch an edit *anywhere*.
// ---------------------------------------------------------------------------

TEST(ContractCacheFingerprint, SameNnzEditOffTheOldSampleGridInvalidates) {
  Rng rng(9006);
  // nnz well past the old 64-entry sample budget, so a stride sampler
  // skipped most entries.
  SparseTensor x = RandomSparseTensor({16, 16, 16}, 400, &rng);
  const int64_t nnz = x.nnz();
  ASSERT_GT(nnz, 128);

  ContractCache cache;
  auto records = cache.Records(/*engine=*/nullptr, x);
  ASSERT_OK(cache.Layout(x, 0).status());
  ASSERT_EQ(cache.misses(), 1);

  // Mutate a single value at an odd interior index — exactly the kind of
  // position an every-other-entry sampler never visited.
  const int64_t victim = nnz / 2 + 1;
  x.set_value(victim, x.value(victim) + 0.5);

  auto rebuilt = cache.Records(/*engine=*/nullptr, x);
  EXPECT_EQ(cache.misses(), 2) << "stale records served after in-place edit";
  EXPECT_NE(rebuilt.get(), records.get());
  EXPECT_DOUBLE_EQ((*rebuilt)[static_cast<size_t>(victim)].value,
                   x.value(victim));
  // The cached layout was dropped too: the next Layout call is a miss.
  ASSERT_OK(cache.Layout(x, 0).status());
  EXPECT_EQ(cache.layout_misses(), 2);
}

// ---------------------------------------------------------------------------
// IncrementalRefitSession: patched refits vs refits from scratch.
// ---------------------------------------------------------------------------

IncrementalRefitOptions RefitOptions() {
  IncrementalRefitOptions options;
  options.rank = 4;
  options.als.max_iterations = 5;
  options.als.seed = 12345;
  return options;
}

Engine InCoreEngine() {
  ClusterConfig config = ClusterConfig::ForTesting();
  config.contraction = "incore";  // the layout cache is what is under test
  HATEN2_CHECK(config.Validate().ok());
  return Engine(config);
}

void ExpectModelsBitIdentical(const KruskalModel& a, const KruskalModel& b) {
  ASSERT_EQ(a.factors.size(), b.factors.size());
  for (size_t m = 0; m < a.factors.size(); ++m) {
    EXPECT_EQ(a.factors[m].MaxAbsDiff(b.factors[m]), 0.0) << "mode " << m;
  }
  ASSERT_EQ(a.lambda.size(), b.lambda.size());
  for (size_t r = 0; r < a.lambda.size(); ++r) {
    EXPECT_EQ(a.lambda[r], b.lambda[r]) << "lambda " << r;
  }
}

/// The full refit of the session's current tensor: Haten2ParafacAls with a
/// private, fresh cache, warm-started from `warm` (the pre-epoch model).
KruskalModel FullRefit(Engine* engine, const IncrementalRefitSession& session,
                       const KruskalModel& warm) {
  ContractCache cache;
  Haten2Options als = session.options().als;
  als.contract_cache = &cache;
  als.initial_kruskal = &warm;
  Result<KruskalModel> full = Haten2ParafacAls(engine, session.tensor(),
                                               session.options().rank, als);
  HATEN2_CHECK(full.ok()) << full.status().ToString();
  return std::move(full).value();
}

TEST(IncrementalRefit, FullAndIncrementalRefitsAreBitIdentical) {
  Rng rng(9007);
  SparseTensor base = RandomSparseTensor({10, 9, 8}, 120, &rng);
  Result<DeltaLog> log = DeltaLog::Create(base.dims());
  ASSERT_TRUE(log.ok());
  ASSERT_OK(log->Append({2, 3, 1}, 1.5));
  ASSERT_OK(log->Append({2, 0, 1}, -0.5));
  ASSERT_OK(log->SealEpoch().status());
  ASSERT_OK(log->Append({7, 8, 6}, 2.25));
  ASSERT_OK(log->Append({7, 3, 6}, 0.75));
  ASSERT_OK(log->SealEpoch().status());

  Engine full_engine = InCoreEngine();
  Engine incr_engine = InCoreEngine();
  IncrementalRefitSession incr(&incr_engine, base, RefitOptions());
  ASSERT_OK(incr.FitBase());

  for (int64_t e = 0; e < log->num_epochs(); ++e) {
    const KruskalModel warm = incr.model();
    ASSERT_OK(incr.RefitWithDelta(log->epoch(e)));
    // The contract: patching changes cost, never the iterates.
    ExpectModelsBitIdentical(FullRefit(&full_engine, incr, warm),
                             incr.model());
  }
  EXPECT_EQ(incr.counters().epochs, 2);
  EXPECT_EQ(incr.counters().delta_nnz, 4);
  // The session actually exercised the patch path.
  EXPECT_EQ(incr.cache().delta_patches(), 2);
  EXPECT_GT(incr.cache().layout_slices_reused(), 0);
  EXPECT_EQ(incr.cache().layout_full_invalidations(), 0);
}

TEST(IncrementalRefit, DeltaTouchingEverySliceStaysBitIdentical) {
  Rng rng(9008);
  SparseTensor base = RandomSparseTensor({5, 5, 5}, 40, &rng);
  // Superdiagonal epoch: every slice of every mode goes dirty, so the
  // patch degenerates to full invalidation — and must still produce the
  // same factors.
  Result<SparseTensor> d = SparseTensor::Create(base.dims());
  ASSERT_TRUE(d.ok());
  for (int64_t i = 0; i < 5; ++i) ASSERT_OK(d->Append({i, i, i}, 0.5));
  d->Canonicalize();

  Engine full_engine = InCoreEngine();
  Engine incr_engine = InCoreEngine();
  IncrementalRefitSession incr(&incr_engine, base, RefitOptions());
  ASSERT_OK(incr.FitBase());

  const KruskalModel warm = incr.model();
  ASSERT_OK(incr.RefitWithDelta(*d));
  ExpectModelsBitIdentical(FullRefit(&full_engine, incr, warm),
                           incr.model());
  EXPECT_EQ(incr.cache().layout_full_invalidations(), 3);
}

// ---------------------------------------------------------------------------
// Checkpoint warm starts (ISSUE 10 satellite: discovery skips torn debris).
// ---------------------------------------------------------------------------

TEST(IncrementalRefit, WarmStartSkipsTornCheckpointAndOrphanedTmp) {
  std::string dir = FreshDir("refit_warm_start");
  Rng rng(9009);
  SparseTensor base = RandomSparseTensor({6, 5, 4}, 30, &rng);

  // A valid kruskal checkpoint at iteration 2 whose factors match the
  // session's shape and rank.
  KruskalModel good;
  good.lambda = {1.0, 1.0, 1.0, 1.0};
  good.factors.push_back(DenseMatrix::RandomUniform(6, 4, &rng));
  good.factors.push_back(DenseMatrix::RandomUniform(5, 4, &rng));
  good.factors.push_back(DenseMatrix::RandomUniform(4, 4, &rng));
  CheckpointOptions ckpt;
  ckpt.directory = dir;
  ckpt.keep_last = 10;
  CheckpointWriter writer(ckpt);
  CheckpointManifest manifest;
  manifest.method = "parafac";
  manifest.model_kind = "kruskal";
  manifest.iteration = 2;
  ASSERT_OK(writer.Write(manifest, &good, nullptr));

  // A *newer* checkpoint torn mid-copy: manifest missing its end marker.
  manifest.iteration = 4;
  ASSERT_OK(writer.Write(manifest, &good, nullptr));
  std::string torn_manifest = dir + "/" + CheckpointDirName(4) + "/MANIFEST";
  std::ifstream in(torn_manifest);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  ASSERT_NE(content.find("end\n"), std::string::npos);
  content.resize(content.find("end\n"));
  std::ofstream(torn_manifest, std::ios::trunc) << content;
  // Orphaned staging debris from a crashed writer, newer still.
  fs::create_directories(dir + "/" + CheckpointDirName(6) + ".tmp");

  Engine engine = InCoreEngine();
  IncrementalRefitSession session(&engine, base, RefitOptions());
  ASSERT_OK(session.WarmStartFromCheckpointDir(dir));
  // Discovery fell back past the torn iter_4 (and ignored the .tmp) to the
  // committed iter_2 model.
  ASSERT_TRUE(session.has_model());
  ASSERT_EQ(session.model().factors.size(), 3u);
  for (size_t m = 0; m < 3; ++m) {
    EXPECT_EQ(session.model().factors[m].MaxAbsDiff(good.factors[m]), 0.0);
  }
  // And the warm start feeds a working refit.
  ASSERT_OK(session.FitBase());
  EXPECT_TRUE(session.has_model());
}

TEST(IncrementalRefit, WarmStartFromEmptyDirIsNotFound) {
  std::string dir = FreshDir("refit_warm_start_empty");
  Engine engine = InCoreEngine();
  Rng rng(9010);
  IncrementalRefitSession session(
      &engine, RandomSparseTensor({4, 4, 4}, 10, &rng), RefitOptions());
  Status status = session.WarmStartFromCheckpointDir(dir);
  EXPECT_TRUE(status.IsNotFound()) << status.ToString();
  EXPECT_FALSE(session.has_model());
}

TEST(IncrementalRefit, WarmStartRefusesTuckerCheckpoint) {
  std::string dir = FreshDir("refit_warm_start_tucker");
  Rng rng(9011);
  TuckerModel tucker;
  tucker.factors.push_back(DenseMatrix::RandomUniform(4, 2, &rng));
  tucker.factors.push_back(DenseMatrix::RandomUniform(4, 2, &rng));
  Result<DenseTensor> core = DenseTensor::Create({2, 2});
  ASSERT_OK(core.status());
  tucker.core = std::move(core).value();
  tucker.core.at({0, 0}) = 1.0;
  CheckpointOptions ckpt;
  ckpt.directory = dir;
  CheckpointWriter writer(ckpt);
  CheckpointManifest manifest;
  manifest.method = "tucker";
  manifest.model_kind = "tucker";
  manifest.iteration = 1;
  ASSERT_OK(writer.Write(manifest, nullptr, &tucker));

  Engine engine = InCoreEngine();
  IncrementalRefitSession session(
      &engine, RandomSparseTensor({4, 4, 4}, 10, &rng), RefitOptions());
  Status status = session.WarmStartFromCheckpointDir(dir);
  EXPECT_TRUE(status.IsFailedPrecondition()) << status.ToString();
}

}  // namespace
}  // namespace haten2
