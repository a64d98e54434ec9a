#ifndef HATEN2_CORE_CONTRACT_H_
#define HATEN2_CORE_CONTRACT_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/records.h"
#include "core/variant.h"
#include "linalg/sparse_kernels.h"
#include "mapreduce/engine.h"
#include "tensor/dense_matrix.h"
#include "tensor/sparse_tensor.h"
#include "util/result.h"

namespace haten2 {

/// Decodes every nonzero of `x` into coordinate records — the input scan the
/// DNN and Naive variants perform before their first job.
std::vector<TensorRecord> TensorToRecords(const SparseTensor& x);

/// \brief Caches iteration-invariant derived forms of an input tensor: the
/// decoded coordinate records (the DNN/Naive input scan) and the compressed
/// per-free-mode CSF-lite layouts the in-core kernels consume.
///
/// An ALS driver evaluates the bottleneck op against the *same* tensor once
/// per mode per iteration; decoding X into TensorRecords (or compressing it
/// into a CsfLayout for a given free mode) is identical every time, so the
/// harness keeps one ContractCache per decomposition and each derived form
/// is built once instead of order × iterations times. Record lookups are
/// accounted in the engine's pipeline log (invariant_cache_hits / misses);
/// layout lookups in the local layout_hits() / layout_misses() counters.
///
/// The cache keys on the tensor's content stamp (SparseTensor::generation()),
/// not on its address, so a lookup is O(1): a tensor edited in place takes
/// a new stamp and invalidates every cached form instead of aliasing stale
/// data, while a copy keeps the stamp and hits. A non-canonical tensor is
/// always a miss and never becomes the key (its stamp predates its last
/// appends); every production caller passes canonical tensors anyway.
/// Tensors that genuinely change every evaluation — e.g. the EM residual in
/// missing_values.cc — should still bypass the cache (pass nullptr to
/// MultiModeContract): every lookup would miss and pay for a rebuild.
/// Not thread-safe; call from the driver thread during plan construction,
/// never from inside plan nodes.
class ContractCache {
 public:
  /// Returns the decoded records of `x`, decoding only on the first call
  /// for this tensor content. `engine` (may be null) receives the hit/miss
  /// count.
  std::shared_ptr<const std::vector<TensorRecord>> Records(
      Engine* engine, const SparseTensor& x);

  /// Returns the CSF-lite layout of `x` sliced on `free_mode`, building it
  /// only on the first call for this (tensor content, free mode) pair.
  Result<std::shared_ptr<const CsfLayout>> Layout(const SparseTensor& x,
                                                  int free_mode);

  /// Re-keys the cache from the previously cached tensor to `new_x` — the
  /// canonical merge of that tensor with the epoch `delta` — invalidating
  /// only the dirty slices instead of dropping every cached form. For each
  /// cached layout the per-mode dirty-slice set is the delta's coordinates
  /// on that mode; clean slices' segments are reused via PatchCsfLayout,
  /// so the patched layout is array-identical to a fresh build against
  /// `new_x`. When the delta touches every slice of a mode the slot
  /// collapses to a full invalidation (counted separately). The decoded
  /// records are dropped — rebuilding them is the same O(nnz) pass a patch
  /// would be, and the next Records() call accounts an honest miss.
  ///
  /// Precondition: the cache currently keys the pre-merge tensor (or is
  /// empty, in which case this just keys to `new_x`). Patching a layout
  /// built from any other tensor is undefined — the determinism tests pin
  /// the merge → patch pairing.
  Status ApplyDelta(const SparseTensor& new_x, const SparseTensor& delta);

  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }
  int64_t layout_hits() const { return layout_hits_; }
  int64_t layout_misses() const { return layout_misses_; }
  int64_t delta_patches() const { return delta_patches_; }
  int64_t dirty_slices() const { return dirty_slices_; }
  int64_t layout_slices_reused() const { return layout_slices_reused_; }
  int64_t layout_slices_rebuilt() const { return layout_slices_rebuilt_; }
  int64_t layout_full_invalidations() const {
    return layout_full_invalidations_;
  }

 private:
  /// True iff `x` is canonical and carries the keyed stamp. On a canonical
  /// mismatch, drops every cached form and re-keys to `x`.
  bool MatchesOrReset(const SparseTensor& x);

  /// Stamp of the keyed tensor; 0 (never a stamp) while nothing is keyed.
  uint64_t generation_ = 0;
  std::shared_ptr<const std::vector<TensorRecord>> records_;
  std::array<std::shared_ptr<const CsfLayout>, kMaxMrOrder> layouts_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t layout_hits_ = 0;
  int64_t layout_misses_ = 0;
  int64_t delta_patches_ = 0;
  int64_t dirty_slices_ = 0;
  int64_t layout_slices_reused_ = 0;
  int64_t layout_slices_rebuilt_ = 0;
  int64_t layout_full_invalidations_ = 0;
};

/// Which merge finalizes the contraction (Figure 4): CrossMerge produces the
/// full cross product of factor columns (Tucker's X ×₂Bᵀ×₃Cᵀ, Definition 3);
/// PairwiseMerge pairs equal columns (PARAFAC's X₍₁₎(C ⊙ B) / MTTKRP,
/// Definition 4). kSketchFused computes the same pairwise math as one
/// integrated broadcast job: every contracted factor is narrow enough to
/// hold in map-task memory (they are s-wide sketches, which is the point),
/// so the mapper emits the already-multiplied partial x·Π_m S_m(i_m, j) and
/// the shuffle carries nnz·s records instead of join cells plus
/// nnz·Σ-widths. On the in-core strategy kSketchFused and kPairwise are the
/// same kernel.
enum class MergeKind {
  kCross = 0,
  kPairwise = 1,
  kSketchFused = 2,
};

/// \brief Result of one bottleneck-op evaluation Y: one dense block per
/// *nonempty* index of the free mode (row i of Y₍ₙ₎), as sorted flat rows.
///
/// For kCross the block is the row of Y₍free₎ ∈ R^{I_free × ΠQ_s}, laid out
/// in Kolda column order (first contracted mode varies fastest). For
/// kPairwise the block is the length-R row of the MTTKRP result. Absent rows
/// are all-zero (the free-mode slice of X was empty), matching the sparsity
/// the paper exploits: only nnz-touched slices materialize.
///
/// Rows are stored in ascending slice order, so any sum a consumer runs
/// over them (Gram(values), the Tucker core) has one order whichever
/// strategy or variant produced them.
struct SliceBlocks {
  int64_t free_dim = 0;
  /// Column counts of the contracted factors, in ascending mode order.
  /// For kPairwise this has a single entry R.
  std::vector<int64_t> block_dims;
  /// Free-mode indices of the rows present, strictly ascending.
  std::vector<int64_t> slice_ids;
  /// slice_ids.size() x BlockSize(), row-major: row k is the block of
  /// slice slice_ids[k].
  DenseMatrix values;

  int64_t BlockSize() const {
    int64_t n = 1;
    for (int64_t d : block_dims) n *= d;
    return n;
  }

  /// Densifies to the full free_dim x BlockSize() matrix (Y₍free₎).
  DenseMatrix ToDenseMatrix() const;
};

/// \brief Evaluates the bottleneck operation of the decompositions with the
/// selected HaTen2 variant, through the contraction path chosen by
/// ClusterConfig::contraction.
///
/// Contracts every mode of `x` except `free_mode` with the corresponding
/// factor matrix (factors[m] ∈ R^{I_m × Q_m}; factors[free_mode] is
/// ignored and may be null):
///   - kind == kCross:     Y = X ×_{m≠n} A_mᵀ        (Tucker, Lemma 1)
///   - kind == kPairwise:  Y = X₍ₙ₎ (⊙_{m≠n} A_m)    (PARAFAC, Lemma 2)
///
/// With contraction == "dataflow" (the default) the evaluation runs through
/// ContractDataflow: the jobs executed (and hence the engine's pipeline
/// counters) follow the paper exactly — Tables III/IV per-variant job counts
/// and intermediate-data sizes are reproduced by construction. On an
/// exceeded shuffle-memory budget returns kResourceExhausted ("o.o.m.").
/// With "incore" it runs through ContractInCore's shuffle-free kernels;
/// "auto" picks in-core when CostModel::EstimateInCoreLayoutBytes fits the
/// incore_memory_mb budget, dataflow otherwise. The selected path is
/// recorded per plan node in haten2-stats-v12.
///
/// Note on CrossMerge/PairwiseMerge keying: the paper's MAP prose keys on
/// (i, rQ+q) but its REDUCE consumes the whole slice X_i:: and Table III
/// charges only nnz(X)(Q+R) intermediate records, so the implementation keys
/// the merge jobs by the free-mode index i alone — the only keying
/// consistent with the stated costs (see DESIGN.md).
///
/// The evaluation is expressed as a dataflow Plan (mapreduce/plan.h) and
/// submitted through a PlanScheduler, so with
/// ClusterConfig::max_concurrent_jobs > 1 independent jobs (DRN's per-column
/// Hadamard jobs, DNN/Naive per-column chains) overlap. Job names, job
/// counts, and every numeric output are identical at any concurrency level:
/// per-node output slots are concatenated in fixed node order before any
/// float summation (see docs/INTERNALS.md, "Dataflow plan layer").
///
/// `cache` (optional) serves the DNN/Naive input scan and the in-core
/// layouts from a per-decomposition ContractCache instead of rebuilding
/// them; pass nullptr for tensors that change between calls.
Result<SliceBlocks> MultiModeContract(
    Engine* engine, const SparseTensor& x,
    const std::vector<const DenseMatrix*>& factors, int free_mode,
    MergeKind kind, Variant variant, ContractCache* cache = nullptr);

}  // namespace haten2

#endif  // HATEN2_CORE_CONTRACT_H_
