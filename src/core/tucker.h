#ifndef HATEN2_CORE_TUCKER_H_
#define HATEN2_CORE_TUCKER_H_

#include <vector>

#include "core/als_harness.h"
#include "core/contract.h"
#include "core/parafac.h"  // Haten2Options
#include "mapreduce/engine.h"
#include "tensor/models.h"
#include "tensor/sparse_tensor.h"
#include "util/result.h"

namespace haten2 {

/// \brief HaTen2-Tucker (Algorithm 2 driven by the MapReduce bottleneck op).
///
/// Each mode update evaluates Y ← X ×_{m≠n} A⁽ᵐ⁾ᵀ through MultiModeContract
/// with MergeKind::kCross and the configured variant. The P leading left
/// singular vectors of Y₍ₙ₎ are extracted with the Gram trick: only the
/// small ΠJ x ΠJ matrix Y₍ₙ₎ᵀY₍ₙ₎ is eigendecomposed (accumulated
/// streaming over the sparse slice blocks), never an I_n x I_n matrix.
/// `options.nonnegative` is ignored (Tucker factors are orthonormal).
///
/// With `options.tucker_sketch` the run is randomized HOOI (PAPERS.md:
/// "Parallel Randomized Tucker Decomposition Algorithms"). A sketched sweep
/// replaces the exact update of every mode but the last:
///
///   1. Sketch — per contracted mode m, a "Sketch[gaussian,m<m>]" plan node
///      computes S⁽ᵐ⁾ = A⁽ᵐ⁾·Ω⁽ᵐ⁾ with a seeded Gaussian Ω⁽ᵐ⁾ ∈ R^{Q_m × s}
///      (linalg/sketch.h), s = the largest core dimension + 4 (the
///      randomized-SVD oversampling margin). The nodes are independent, so
///      a concurrent scheduler overlaps them.
///   2. Contract — Z = X₍ₙ₎ (⊙_{m≠n} S⁽ᵐ⁾) through MultiModeContract with
///      MergeKind::kSketchFused: the s-wide sketches are small enough to
///      broadcast into map-task memory, so one integrated job emits the
///      already-multiplied partials and the shuffle carries nnz·s records,
///      on whichever contraction path ClusterConfig::contraction selects.
///   3. Range-find — A⁽ⁿ⁾ = TuckerLeadingFactor(Z, Q_n): the exact update's
///      Gram-trick SVD on an s × s Gram instead of ΠQ × ΠQ.
///
/// The last mode of every sweep stays exact: its Y blocks double as the
/// core update, so each sweep still reports the true ||G||. The final
/// `options.exact_polish_sweeps` sweeps are exact for every mode. Sketched
/// sweeps always run (their ||G|| deltas carry projection noise); the
/// convergence test is live only during the exact sweeps.
///
/// Checkpoints carry method "tucker", or "sketched-tucker" with a
/// fingerprint that folds in the sketch width and polish count, so a
/// checkpoint resumes only under the configuration that wrote it. The
/// polish boundary counts back from max_iterations, so a sketched resume
/// must also keep the original iteration budget. At a fixed seed every run
/// is bit-reproducible.
///
/// Returns kResourceExhausted when the variant's intermediate data exceeds
/// the engine's shuffle-memory budget ("o.o.m.").
Result<TuckerModel> Haten2TuckerAls(Engine* engine, const SparseTensor& x,
                                    std::vector<int64_t> core_dims,
                                    const Haten2Options& options = {});

/// \brief The HOOI per-mode factor update: `count` leading left singular
/// vectors of the implicit matrix whose rows are y's slice blocks, via the
/// eigendecomposition of the small BlockSize² Gram matrix Y₍ₙ₎ᵀY₍ₙ₎.
/// Deficient directions are completed with orthonormalized canonical basis
/// vectors (dead components). On a sketched sweep y is the s-wide projected
/// contraction, so the same code is the randomized range finder — the Gram
/// shrinks from ΠQ² to s².
Result<DenseMatrix> TuckerLeadingFactor(const SliceBlocks& y, int64_t count);

/// \brief The core update shared by the Tucker-family drivers:
/// G₍last₎ = A⁽ˡᵃˢᵗ⁾ᵀ·Y₍last₎ accumulated over the sparse slice blocks of
/// the last mode's *cross* contraction, then folded to core_dims. `a_last`
/// must be the freshly updated last-mode factor.
Result<DenseTensor> TuckerCoreFromBlocks(const SliceBlocks& last_y,
                                         const DenseMatrix& a_last,
                                         const std::vector<int64_t>& core_dims,
                                         int last_mode);

}  // namespace haten2

#endif  // HATEN2_CORE_TUCKER_H_
