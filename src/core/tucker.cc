#include "core/tucker.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "linalg/linalg.h"
#include "util/random.h"

namespace haten2 {

/// Extracts `count` leading left singular vectors of the implicit matrix
/// whose rows are y's slice blocks, via the eigendecomposition of the small
/// Gram matrix Y₍ₙ₎ᵀY₍ₙ₎. Deficient directions are completed with
/// orthonormalized canonical basis vectors (dead components).
Result<DenseMatrix> TuckerLeadingFactor(const SliceBlocks& y, int64_t count) {
  const int64_t block = y.BlockSize();
  if (count > y.free_dim) {
    return Status::InvalidArgument(
        "core dimension exceeds the tensor mode size");
  }
  DenseMatrix gram = Gram(y.values);
  HATEN2_ASSIGN_OR_RETURN(EigResult eig, SymmetricEigen(gram));
  double smax_sq = eig.eigenvalues.empty()
                       ? 0.0
                       : std::max(eig.eigenvalues[0], 0.0);
  // Eigenvalues of the Gram matrix carry ~1e-16 relative noise, so only
  // directions above ~1e-7 in singular-value space (1e-14 in eigenvalue
  // space) are numerically trustworthy.
  double cutoff_sq = smax_sq * 1e-14;

  DenseMatrix a(y.free_dim, count);
  int64_t valid = 0;
  for (int64_t p = 0; p < std::min(count, block); ++p) {
    double ev = std::max(eig.eigenvalues[static_cast<size_t>(p)], 0.0);
    if (ev <= cutoff_sq || ev == 0.0) break;
    double inv_s = 1.0 / std::sqrt(ev);
    double norm_sq = 0.0;
    for (size_t k = 0; k < y.slice_ids.size(); ++k) {
      const double* row = y.values.RowPtr(static_cast<int64_t>(k));
      double dot = 0.0;
      for (int64_t c = 0; c < block; ++c) {
        dot += row[c] * eig.eigenvectors(c, p);
      }
      double value = dot * inv_s;
      a(y.slice_ids[k], p) = value;
      norm_sq += value * value;
    }
    // Guard against numerically unreliable directions; re-normalize drift.
    double norm = std::sqrt(norm_sq);
    if (norm < 0.5 || norm > 2.0) {
      for (int64_t slice : y.slice_ids) a(slice, p) = 0.0;
      break;
    }
    for (int64_t slice : y.slice_ids) a(slice, p) /= norm;
    ++valid;
  }
  // Complete any deficient columns to keep A orthonormal.
  int64_t next_basis = 0;
  for (int64_t p = valid; p < count; ++p) {
    bool placed = false;
    while (next_basis < y.free_dim && !placed) {
      std::vector<double> cand(static_cast<size_t>(y.free_dim), 0.0);
      cand[static_cast<size_t>(next_basis)] = 1.0;
      ++next_basis;
      for (int64_t c = 0; c < p; ++c) {
        double dot = 0.0;
        for (int64_t i = 0; i < y.free_dim; ++i) {
          dot += cand[static_cast<size_t>(i)] * a(i, c);
        }
        for (int64_t i = 0; i < y.free_dim; ++i) {
          cand[static_cast<size_t>(i)] -= dot * a(i, c);
        }
      }
      double norm = 0.0;
      for (double v : cand) norm += v * v;
      norm = std::sqrt(norm);
      if (norm > 1e-8) {
        for (int64_t i = 0; i < y.free_dim; ++i) {
          a(i, p) = cand[static_cast<size_t>(i)] / norm;
        }
        placed = true;
      }
    }
    if (!placed) {
      return Status::Internal("failed to complete an orthonormal basis");
    }
  }
  return a;
}

Result<DenseTensor> TuckerCoreFromBlocks(const SliceBlocks& last_y,
                                         const DenseMatrix& a_last,
                                         const std::vector<int64_t>& core_dims,
                                         int last_mode) {
  DenseMatrix core_unfolded(core_dims[static_cast<size_t>(last_mode)],
                            last_y.BlockSize());
  for (size_t k = 0; k < last_y.slice_ids.size(); ++k) {
    const double* row = last_y.values.RowPtr(static_cast<int64_t>(k));
    for (int64_t p = 0; p < core_unfolded.rows(); ++p) {
      double w = a_last(last_y.slice_ids[k], p);
      if (w == 0.0) continue;
      double* crow = core_unfolded.RowPtr(p);
      for (int64_t c = 0; c < core_unfolded.cols(); ++c) {
        crow[c] += w * row[c];
      }
    }
  }
  return DenseTensor::Fold(core_unfolded, last_mode, core_dims);
}

Status OrthonormalTuckerStart(AlsStart start, const SparseTensor& x,
                              const std::vector<int64_t>& core_dims,
                              uint64_t seed, TuckerModel* model) {
  if (start == AlsStart::kResumed) return Status::OK();
  if (start == AlsStart::kFresh) {
    Rng rng(seed);
    model->factors.clear();
    for (int m = 0; m < x.order(); ++m) {
      model->factors.push_back(DenseMatrix::RandomNormal(
          x.dim(m), core_dims[static_cast<size_t>(m)], &rng));
    }
  }
  // A warm start is re-orthonormalized too: hand-built starts may not have
  // orthonormal columns, which the ||G||-based fit requires.
  for (DenseMatrix& factor : model->factors) {
    HATEN2_ASSIGN_OR_RETURN(QrResult qr, QrDecompose(factor));
    factor = std::move(qr.q);
  }
  return Status::OK();
}

Result<TuckerModel> Haten2TuckerAls(Engine* engine, const SparseTensor& x,
                                    std::vector<int64_t> core_dims,
                                    const Haten2Options& options) {
  HATEN2_RETURN_IF_ERROR(ValidateAlsInput(engine, x));
  HATEN2_RETURN_IF_ERROR(ValidateCoreDims(x, core_dims));
  const int order = x.order();

  TuckerModel model;
  AlsHarness harness(engine, options, "tucker",
                     CheckpointFingerprint("tucker", options.variant,
                                           options.seed, options.tolerance,
                                           core_dims, x),
                     &model, {x.FrobeniusNorm(), /*converge_on_equal=*/true});
  HATEN2_ASSIGN_OR_RETURN(AlsStart start, harness.Start(x, core_dims));
  HATEN2_RETURN_IF_ERROR(
      OrthonormalTuckerStart(start, x, core_dims, options.seed, &model));

  Status loop_status = harness.Run(
      [&](int, AlsIterationOutcome* outcome) -> Status {
      SliceBlocks last_y;
      for (int n = 0; n < order; ++n) {
        HATEN2_ASSIGN_OR_RETURN(
            SliceBlocks y,
            MultiModeContract(engine, x, model.FactorPtrs(), n,
                              MergeKind::kCross, options.variant,
                              harness.cache()));
        HATEN2_ASSIGN_OR_RETURN(
            DenseMatrix factor,
            TuckerLeadingFactor(y, core_dims[static_cast<size_t>(n)]));
        model.factors[static_cast<size_t>(n)] = std::move(factor);
        if (n == order - 1) last_y = std::move(y);
      }
      // Core: G = Y ×_{N-1} A⁽ᴺ⁻¹⁾ᵀ, i.e. G₍ₙ₎ = AᵀY₍ₙ₎ accumulated over
      // the sparse slice blocks, then folded.
      const int last = order - 1;
      HATEN2_ASSIGN_OR_RETURN(
          model.core,
          TuckerCoreFromBlocks(last_y,
                               model.factors[static_cast<size_t>(last)],
                               core_dims, last));
      const double core_norm = model.core.FrobeniusNorm();
      model.core_norm_history.push_back(core_norm);
      outcome->has_core_norm = true;
      outcome->core_norm = core_norm;
      outcome->has_metric = true;
      outcome->metric = core_norm;
      return Status::OK();
      });
  if (!loop_status.ok()) return loop_status;
  HATEN2_ASSIGN_OR_RETURN(model.fit, TuckerFit(x, model));
  return model;
}

}  // namespace haten2
