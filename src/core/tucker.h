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
/// Returns kResourceExhausted when the variant's intermediate data exceeds
/// the engine's shuffle-memory budget ("o.o.m.").
Result<TuckerModel> Haten2TuckerAls(Engine* engine, const SparseTensor& x,
                                    std::vector<int64_t> core_dims,
                                    const Haten2Options& options = {});

/// \brief The HOOI per-mode factor update shared by the exact and sketched
/// drivers: `count` leading left singular vectors of the implicit matrix
/// whose rows are y's slice blocks, via the eigendecomposition of the small
/// BlockSize² Gram matrix Y₍ₙ₎ᵀY₍ₙ₎. Deficient directions are completed
/// with orthonormalized canonical basis vectors (dead components). For the
/// sketched driver y is the s-wide projected contraction, so the same code
/// is the randomized range finder — the Gram shrinks from ΠQ² to s².
Result<DenseMatrix> TuckerLeadingFactor(const SliceBlocks& y, int64_t count);

/// \brief The orthonormal start shared by the exact and sketched drivers,
/// called after AlsHarness::Start: a fresh start draws factor m from
/// RandomNormal(x.dim(m), core_dims[m]) on Rng(seed) in mode order, so both
/// drivers begin from identical factors at a fixed seed; a fresh or warm
/// start then takes one QR per mode, in mode order. A resumed model is left
/// verbatim.
Status OrthonormalTuckerStart(AlsStart start, const SparseTensor& x,
                              const std::vector<int64_t>& core_dims,
                              uint64_t seed, TuckerModel* model);

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
