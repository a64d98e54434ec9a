#include "core/contract.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/contraction_strategy.h"
#include "core/records.h"
#include "util/string_util.h"

namespace haten2 {

std::vector<TensorRecord> TensorToRecords(const SparseTensor& x) {
  std::vector<TensorRecord> records;
  records.reserve(static_cast<size_t>(x.nnz()));
  for (int64_t e = 0; e < x.nnz(); ++e) {
    records.push_back(
        TensorRecord{Coord::FromIndex(x.IndexPtr(e), x.order()), x.value(e)});
  }
  return records;
}

bool ContractCache::MatchesOrReset(const SparseTensor& x) {
  // A non-canonical tensor's stamp is stale (appends take none), so it
  // is never a hit and never becomes the key.
  if (!x.canonical()) return false;
  if (x.generation() == generation_) return true;
  // New (or rebuilt-in-place) tensor: every cached form is stale.
  records_.reset();
  for (auto& slot : layouts_) slot.reset();
  generation_ = x.generation();
  return false;
}

std::shared_ptr<const std::vector<TensorRecord>> ContractCache::Records(
    Engine* engine, const SparseTensor& x) {
  const bool key_match = MatchesOrReset(x);
  const bool hit = key_match && records_ != nullptr;
  std::shared_ptr<const std::vector<TensorRecord>> out = records_;
  if (hit) {
    ++hits_;
  } else {
    out = std::make_shared<const std::vector<TensorRecord>>(
        TensorToRecords(x));
    if (x.canonical()) records_ = out;
    ++misses_;
  }
  if (engine != nullptr) engine->NoteInvariantCache(hit);
  return out;
}

Status ContractCache::ApplyDelta(const SparseTensor& new_x,
                                 const SparseTensor& delta) {
  if (!new_x.canonical()) {
    return Status::FailedPrecondition(
        "ContractCache::ApplyDelta: merged tensor must be canonical");
  }
  if (delta.order() != new_x.order()) {
    return Status::InvalidArgument(
        StrFormat("ContractCache::ApplyDelta: delta order %d != tensor "
                  "order %d",
                  delta.order(), new_x.order()));
  }
  ++delta_patches_;
  records_.reset();
  const int order = new_x.order();
  for (int m = 0; m < order && m < kMaxMrOrder; ++m) {
    auto& slot = layouts_[static_cast<size_t>(m)];
    if (slot == nullptr) continue;
    std::vector<int64_t> dirty;
    dirty.reserve(static_cast<size_t>(delta.nnz()));
    for (int64_t e = 0; e < delta.nnz(); ++e) {
      dirty.push_back(delta.IndexPtr(e)[m]);
    }
    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
    dirty_slices_ += static_cast<int64_t>(dirty.size());
    if (static_cast<int64_t>(dirty.size()) >= new_x.dim(m)) {
      // Degenerate delta: every slice of this mode is dirty, so patching
      // degrades to a full rebuild — collapse to a plain invalidation and
      // let the next Layout() call rebuild (an honest layout miss).
      slot.reset();
      ++layout_full_invalidations_;
      continue;
    }
    CsfPatchCounters pc;
    HATEN2_ASSIGN_OR_RETURN(CsfLayout patched,
                            PatchCsfLayout(*slot, new_x, dirty, &pc));
    slot = std::make_shared<const CsfLayout>(std::move(patched));
    layout_slices_reused_ += pc.slices_reused;
    layout_slices_rebuilt_ += pc.slices_rebuilt;
  }
  generation_ = new_x.generation();
  return Status::OK();
}

Result<std::shared_ptr<const CsfLayout>> ContractCache::Layout(
    const SparseTensor& x, int free_mode) {
  if (free_mode < 0 || free_mode >= kMaxMrOrder) {
    return Status::InvalidArgument(
        StrFormat("ContractCache::Layout: free_mode %d out of range",
                  free_mode));
  }
  const bool key_match = MatchesOrReset(x);
  auto& slot = layouts_[static_cast<size_t>(free_mode)];
  if (key_match && slot != nullptr) {
    ++layout_hits_;
    return slot;
  }
  HATEN2_ASSIGN_OR_RETURN(CsfLayout built, BuildCsfLayout(x, free_mode));
  auto out = std::make_shared<const CsfLayout>(std::move(built));
  if (x.canonical()) slot = out;
  ++layout_misses_;
  return out;
}

DenseMatrix SliceBlocks::ToDenseMatrix() const {
  DenseMatrix out(free_dim, BlockSize());
  for (size_t k = 0; k < slice_ids.size(); ++k) {
    const double* row = values.RowPtr(static_cast<int64_t>(k));
    std::copy(row, row + values.cols(), out.RowPtr(slice_ids[k]));
  }
  return out;
}

Result<SliceBlocks> MultiModeContract(
    Engine* engine, const SparseTensor& x,
    const std::vector<const DenseMatrix*>& factors, int free_mode,
    MergeKind kind, Variant variant, ContractCache* cache) {
  if (engine == nullptr) {
    return Status::InvalidArgument("engine must not be null");
  }
  if (x.order() < 2 || x.order() > kMaxMrOrder) {
    return Status::InvalidArgument(StrFormat(
        "the MapReduce path supports orders 2..%d, got %d (use the baseline "
        "library for higher orders)",
        kMaxMrOrder, x.order()));
  }
  if (!x.canonical()) {
    return Status::FailedPrecondition(
        "input tensor must be canonical (call Canonicalize())");
  }
  if (free_mode < 0 || free_mode >= x.order()) {
    return Status::InvalidArgument("free_mode out of range");
  }
  if (static_cast<int>(factors.size()) != x.order()) {
    return Status::InvalidArgument("need one factor slot per mode");
  }

  ContractionContext ctx;
  ctx.engine = engine;
  ctx.x = &x;
  ctx.free_mode = free_mode;
  ctx.kind = kind;
  ctx.variant = variant;
  ctx.cache = cache;
  for (int m = 0; m < x.order(); ++m) {
    if (m == free_mode) continue;
    const DenseMatrix* f = factors[static_cast<size_t>(m)];
    if (f == nullptr) {
      return Status::InvalidArgument(
          StrFormat("factor for contracted mode %d is null", m));
    }
    if (f->rows() != x.dim(m)) {
      return Status::InvalidArgument(
          StrFormat("factor %d has %lld rows, mode size is %lld", m,
                    (long long)f->rows(), (long long)x.dim(m)));
    }
    if (f->cols() <= 0) {
      return Status::InvalidArgument("factor matrices must have >= 1 column");
    }
    ctx.cmodes.push_back(m);
    ctx.cfactors.push_back(f);
    ctx.block_dims.push_back(f->cols());
  }
  if (kind == MergeKind::kPairwise || kind == MergeKind::kSketchFused) {
    for (size_t s = 1; s < ctx.block_dims.size(); ++s) {
      if (ctx.block_dims[s] != ctx.block_dims[0]) {
        return Status::InvalidArgument(
            "pairwise-style merges require all factors to share the same "
            "rank");
      }
    }
  }

  // Path selection (ClusterConfig::contraction, validated upstream).
  const bool incore = engine->config().contraction == "incore";
  return incore ? ContractInCore(ctx) : ContractDataflow(ctx);
}

}  // namespace haten2
