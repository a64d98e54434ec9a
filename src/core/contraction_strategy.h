#ifndef HATEN2_CORE_CONTRACTION_STRATEGY_H_
#define HATEN2_CORE_CONTRACTION_STRATEGY_H_

#include <vector>

#include "core/contract.h"
#include "core/variant.h"
#include "mapreduce/engine.h"
#include "tensor/dense_matrix.h"
#include "tensor/sparse_tensor.h"
#include "util/result.h"

namespace haten2 {

/// \brief Validated, shared state of one bottleneck-op evaluation, built by
/// MultiModeContract and handed to the selected contraction path.
///
/// All invariants hold by the time a path sees this: the tensor is
/// canonical with order in [2, kMaxMrOrder], `cfactors` are non-null with
/// rows matching their mode's extent, and for kPairwise all column counts
/// are equal. `cmodes` / `cfactors` / `block_dims` are parallel arrays over
/// the contracted modes in ascending mode order.
struct ContractionContext {
  Engine* engine = nullptr;
  const SparseTensor* x = nullptr;
  int free_mode = 0;
  MergeKind kind = MergeKind::kCross;
  Variant variant = Variant::kDri;
  std::vector<int> cmodes;                   // contracted modes, ascending
  std::vector<const DenseMatrix*> cfactors;  // parallel to cmodes
  std::vector<int64_t> block_dims;           // cfactors[s]->cols()
  /// Per-decomposition cache of iteration-invariant derived forms of `x`
  /// (decoded records for the dataflow DNN/Naive scan, compressed layouts
  /// for the in-core kernels); null when the caller's tensor changes
  /// between evaluations.
  ContractCache* cache = nullptr;

  int num_streams() const { return static_cast<int>(cmodes.size()); }
};

// The two contraction paths MultiModeContract selects between
// (ClusterConfig::contraction; the `auto` policy consults
// CostModel::EstimateInCoreLayoutBytes). Each builds a dataflow Plan, tags
// its nodes with the path name via Plan::AnnotateContraction (so stats_json
// records the per-node choice), and runs it through a PlanScheduler on
// ctx.engine. Both return SliceBlocks with ascending slice_ids.

/// \brief The paper's contraction path ("dataflow",
/// core/dataflow_contraction.cc): every evaluation is a dataflow Plan of
/// MapReduce jobs whose shapes and counts follow the selected HaTen2
/// variant exactly (Tables III/IV hold by construction).
///
///  - kDri: one IMHP job producing every Hadamard stream, then one merge.
///  - kDrn: one Hadamard job per (stream, column), then one merge.
///  - kDnn: decoupled Hadamard + Collapse chains (per column for pairwise).
///  - kNaive: per-column broadcast TTV chains.
///
/// Emits one row per slice that received a record. The DNN/Naive input scan
/// is served from ctx.cache when present.
Result<SliceBlocks> ContractDataflow(const ContractionContext& ctx);

/// \brief DFacTo-style in-core contraction ("incore",
/// core/incore_contraction.cc): builds a compressed slice-major layout of
/// the tensor (linalg/sparse_kernels.h, CSF-lite) and evaluates
///  - kPairwise (and kSketchFused) as two SpMV-shaped passes per rank block
///    (CsfMttkrp), and
///  - kCross as a blocked slice-wise chain (CsfCrossContract),
/// with no shuffle and no intermediate records. The layout is served from
/// ctx.cache when present (one build per (tensor, free mode) per
/// decomposition), rebuilt otherwise. Emits one row per nonempty slice.
///
/// The evaluation is a single plan node named "InCoreContract[m<free>]",
/// annotated "incore" with a ContractionTiming carrying the layout-build and
/// kernel-evaluate wall times (surfaced per node in haten2-stats-v12).
///
/// Numerics: each entry's contribution is formed in ascending contracted-mode
/// order — the same association the dataflow merges use — so tensors whose
/// fibers are singletons (e.g. superdiagonal test tensors) reproduce the
/// dataflow output bit-for-bit; general tensors agree to rounding. The
/// variant knob does not change the math here, only the dataflow job shapes,
/// so it is ignored.
Result<SliceBlocks> ContractInCore(const ContractionContext& ctx);

}  // namespace haten2

#endif  // HATEN2_CORE_CONTRACTION_STRATEGY_H_
