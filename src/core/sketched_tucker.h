#ifndef HATEN2_CORE_SKETCHED_TUCKER_H_
#define HATEN2_CORE_SKETCHED_TUCKER_H_

#include <vector>

#include "core/parafac.h"  // Haten2Options
#include "mapreduce/engine.h"
#include "tensor/models.h"
#include "tensor/sparse_tensor.h"
#include "util/result.h"

namespace haten2 {

/// \brief Sketched HaTen2-Tucker: randomized HOOI with per-mode projections
/// (PAPERS.md: "Parallel Randomized Tucker Decomposition Algorithms" and
/// the mode-parallel randomized (H-)Tucker paper).
///
/// The exact driver pays, per mode per sweep, a CrossMerge contraction with
/// ΠQ-wide blocks plus the eigendecomposition of a ΠQ × ΠQ Gram matrix.
/// The sketched sweep replaces both for every mode but the last:
///
///   1. Sketch — per contracted mode m, a "Sketch[kind,m]" plan node
///      computes S⁽ᵐ⁾ = A⁽ᵐ⁾·Ω⁽ᵐ⁾ with Ω⁽ᵐ⁾ ∈ R^{Q_m × s} drawn once per
///      run from linalg/sketch.h (Gaussian or CountSketch; seeded,
///      bit-reproducible). The nodes are independent, so a concurrent
///      scheduler overlaps them.
///   2. Contract — Z = X₍ₙ₎ (⊙_{m≠n} S⁽ᵐ⁾) through MultiModeContract with
///      MergeKind::kSketchFused: the sketched factors are s-wide, small
///      enough to broadcast into map-task memory, so one integrated job
///      emits the already-multiplied partials and the shuffle carries
///      nnz·s records instead of the exact path's join cells plus
///      nnz·ΣQ partials — on whichever contraction path (dataflow or
///      in-core) ClusterConfig::contraction selects.
///   3. Range-find — A⁽ⁿ⁾ = `Q_n` leading left singular vectors of Z via
///      TuckerLeadingFactor: the same Gram-trick SVD as the exact driver,
///      but on an s × s Gram instead of ΠQ × ΠQ.
///
/// The *last* mode of every sweep stays exact (CrossMerge + full SVD): its
/// Y blocks double as the core update G₍ₗₐₛₜ₎ = AᵀY₍ₗₐₛₜ₎, so each sweep
/// still produces the true core and ||G|| without an extra contraction.
/// The final ClusterConfig::exact_polish_sweeps iterations run the exact
/// update for every mode, recovering the accuracy the projections gave up.
/// Sketched sweeps always run to their sweep budget (the sketch noise makes
/// early ||G|| deltas untrustworthy); the convergence test is live only
/// during polish sweeps.
///
/// Configuration comes from the engine's ClusterConfig: `tucker_sketch`
/// must be "gaussian" or "countsketch" (a "none" config is
/// kInvalidArgument — callers route exact runs to Haten2TuckerAls), s is
/// `sketch_size` (0 = largest core dim + 4, and explicit values must be >=
/// the largest core dim). Checkpoint/resume ride the AlsHarness unchanged:
/// manifests carry method "sketched-tucker" and a fingerprint that folds in
/// the sketch kind, width and polish count, so a checkpoint cannot resume
/// under a different sketch configuration. At a fixed --seed the whole run
/// — operators, iterates, resumes — is bit-reproducible. One caveat the
/// fingerprint cannot see: the polish boundary counts back from
/// `max_iterations`, so a resume must keep the original iteration budget
/// for the sweep schedule (and hence the iterates) to match.
Result<TuckerModel> Haten2SketchedTuckerAls(Engine* engine,
                                            const SparseTensor& x,
                                            std::vector<int64_t> core_dims,
                                            const Haten2Options& options = {});

}  // namespace haten2

#endif  // HATEN2_CORE_SKETCHED_TUCKER_H_
