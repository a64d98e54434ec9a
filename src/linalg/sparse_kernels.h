#ifndef HATEN2_LINALG_SPARSE_KERNELS_H_
#define HATEN2_LINALG_SPARSE_KERNELS_H_

#include <cstdint>
#include <vector>

#include "tensor/dense_matrix.h"
#include "tensor/sparse_tensor.h"
#include "util/result.h"
#include "util/status.h"

namespace haten2 {

// In-core sparse contraction kernels (DFacTo-style). The IMHP dataflow
// shuffles one record per (nonzero, rank-cell); when the tensor fits in a
// worker's memory the same contraction collapses to two sparse
// matrix-vector style passes over a compressed slice-major layout. These
// kernels implement that fast path; `src/core/incore_contraction.cc` runs
// them as the in-core contraction path, writing straight into the row
// block of the SliceBlocks it returns.
//
// Accumulation-order contract: every kernel forms each entry's contribution
// as ((x · b_{c0}) · b_{c1}) · b_{c2}..., multiplying contracted-mode factor
// cells in ascending mode order — exactly the association the dataflow
// merge uses. Slices or fibers holding a single nonzero therefore produce
// bit-identical cells to the dataflow path; multi-entry sums agree to
// rounding (the dataflow merge sums a slice's entries in ascending
// coordinate order, which the kernels' fiber order does not reproduce).

/// Compressed slice-major layout of one (tensor, free mode) pair — "CSF-lite".
///
/// Entries are grouped first by their free-mode index ("slices", the output
/// rows), then by their coordinates on all contracted modes except the first
/// ("fibers"), leaving the first contracted mode as the innermost SpMV
/// stream. Only nonempty slices are stored; `slice_ids` maps the compressed
/// slice position back to the free-mode index.
struct CsfLayout {
  int free_mode = 0;
  int num_streams = 0;     // number of contracted modes S = order - 1
  std::vector<int> cmodes; // contracted modes, ascending, size S

  std::vector<int64_t> slice_ids;         // nonempty free-mode indices, ascending
  std::vector<int64_t> slice_fiber_begin; // size slices+1, fiber ranges
  std::vector<int64_t> fiber_entry_begin; // size fibers+1, entry ranges
  std::vector<int64_t> fiber_coords;      // fibers * (S-1): coords on cmodes[1..]
  std::vector<int64_t> entry_inner;       // per entry: coord on cmodes[0]
  std::vector<double> values;             // per entry: tensor value

  int64_t num_slices() const { return static_cast<int64_t>(slice_ids.size()); }
  int64_t num_fibers() const {
    return static_cast<int64_t>(fiber_entry_begin.empty()
                                    ? 0
                                    : fiber_entry_begin.size() - 1);
  }
  int64_t nnz() const { return static_cast<int64_t>(values.size()); }

  /// Actual heap footprint of the layout's arrays in bytes.
  uint64_t MemoryBytes() const;
};

/// Builds the compressed layout of `x` for contraction over every mode
/// except `free_mode`. Requires order >= 2 and canonical entry order is not
/// required (duplicate coordinates simply occupy adjacent entries of one
/// fiber and are summed by the kernels).
Result<CsfLayout> BuildCsfLayout(const SparseTensor& x, int free_mode);

/// MTTKRP over the layout (kPairwise): for each stored slice i,
///   out[i][r] = sum over entries in slice i of
///               x(e) * prod_s cfactors[s](coord_s(e), r).
/// `cfactors[s]` is the factor for mode `layout.cmodes[s]`; all must share
/// `rank` columns. `out` is reset to a zeroed layout.num_slices() x `rank`
/// matrix whose row k is slice `slice_ids[k]`. Evaluated as DFacTo's two
/// passes: an inner SpMV over the first contracted mode per fiber, then
/// outer scaling in ascending mode order — cache-blocked over rank.
Status CsfMttkrp(const CsfLayout& layout,
                 const std::vector<const DenseMatrix*>& cfactors, int rank,
                 DenseMatrix* out);

/// Cross contraction over the layout (kCross): for each stored slice i the
/// output row is the dense block over all rank combinations,
///   out[i][q0 + w1*q1 + ...] = sum over entries of
///       x(e) * cfactors[0](i0, q0) * cfactors[1](i1, q1) * ...
/// with stream 0 varying fastest (w1 = block_dims[0], Kolda ordering — the
/// same weights the dataflow merge uses). `block_dims[s]` must equal
/// `cfactors[s]->cols()`. `out` is reset to a zeroed layout.num_slices() x
/// prod(block_dims) matrix whose row k is slice `slice_ids[k]`.
Status CsfCrossContract(const CsfLayout& layout,
                        const std::vector<const DenseMatrix*>& cfactors,
                        const std::vector<int64_t>& block_dims,
                        DenseMatrix* out);

/// Per-layout accounting of what PatchCsfLayout salvaged: clean slices
/// whose segments were copied verbatim vs dirty slices rebuilt from the
/// new tensor's entries.
struct CsfPatchCounters {
  int64_t slices_reused = 0;
  int64_t slices_rebuilt = 0;
};

/// Incrementally rebuilds a cached layout after a slice-local edit of the
/// tensor it was built from. `new_x` is the canonical post-edit tensor;
/// `dirty_slices` lists every free-mode index whose slice may differ
/// between the old tensor and `new_x` (duplicates/unsorted input are
/// tolerated). Segments of clean slices are copied verbatim — the layout's
/// arrays are purely positional, so a slice's fibers and entries relocate
/// without change — and dirty slices are rebuilt from `new_x`'s entries
/// with BuildCsfLayout's own sort order and slice walk. The result is
/// array-identical to `BuildCsfLayout(new_x, old_layout.free_mode)`: on
/// canonical tensors that order is fully determined by coordinates, so
/// per-slice order cannot depend on the rest of the tensor. Returns
/// kInternal if the edit was not confined to `dirty_slices` (detected via
/// an nnz mismatch).
Result<CsfLayout> PatchCsfLayout(const CsfLayout& old_layout,
                                 const SparseTensor& new_x,
                                 const std::vector<int64_t>& dirty_slices,
                                 CsfPatchCounters* counters = nullptr);

/// Content fingerprint of a tensor: mixes order, dims, nnz and every
/// (coordinate, value) entry, in one O(nnz) pass. ContractCache keys on
/// the O(1) SparseTensor::generation() instead; this full hash is the
/// reference the stamp's tests check it against (whenever the fingerprint
/// changes, the stamp must change too).
uint64_t TensorFingerprint(const SparseTensor& x);

}  // namespace haten2

#endif  // HATEN2_LINALG_SPARSE_KERNELS_H_
