#include "core/nonnegative_tucker.h"

#include <algorithm>
#include <cmath>

#include "core/als_harness.h"
#include "core/tucker.h"
#include "linalg/linalg.h"
#include "tensor/tensor_ops.h"
#include "util/random.h"

namespace haten2 {

namespace {

constexpr double kEps = 1e-12;

/// ⊗_{m != skip, descending} grams[m]: with Kronecker's second operand
/// varying fastest, the descending order makes the *first* non-skip mode
/// vary fastest in the column index — matching DenseTensor::Unfold and
/// SliceBlocks.
DenseMatrix KronGramsExcept(const std::vector<DenseMatrix>& grams,
                            int skip) {
  DenseMatrix acc = DenseMatrix::Identity(1);
  for (int m = static_cast<int>(grams.size()) - 1; m >= 0; --m) {
    if (m == skip) continue;
    acc = Kronecker(acc, grams[static_cast<size_t>(m)]);
  }
  return acc;
}

/// H = G ×₁ gram₁ ... ×ₙ gramₙ (all modes), dense.
Result<DenseTensor> CoreTimesAllGrams(const DenseTensor& core,
                                      const std::vector<DenseMatrix>& grams) {
  DenseTensor current = core;
  for (int m = 0; m < core.order(); ++m) {
    DenseMatrix unfolded = current.Unfold(m);
    HATEN2_ASSIGN_OR_RETURN(DenseMatrix product,
                            MatMul(grams[static_cast<size_t>(m)], unfolded));
    HATEN2_ASSIGN_OR_RETURN(current,
                            DenseTensor::Fold(product, m, current.dims()));
  }
  return current;
}

/// <X, G ×ₘ A⁽ᵐ⁾> plus ||X||² / fit bookkeeping: evaluates the model at
/// every nonzero of X, O(nnz · |G|).
double InnerProductWithModel(const SparseTensor& x, const DenseTensor& core,
                             const std::vector<DenseMatrix>& factors) {
  double total = 0.0;
  const int order = x.order();
  std::vector<int64_t> cidx(static_cast<size_t>(order), 0);
  for (int64_t e = 0; e < x.nnz(); ++e) {
    const int64_t* idx = x.IndexPtr(e);
    double recon = 0.0;
    std::fill(cidx.begin(), cidx.end(), 0);
    for (int64_t lin = 0; lin < core.size(); ++lin) {
      double p = core.data()[static_cast<size_t>(lin)];
      if (p != 0.0) {
        for (int m = 0; m < order; ++m) {
          p *= factors[static_cast<size_t>(m)](idx[m], cidx[static_cast<size_t>(m)]);
        }
        recon += p;
      }
      for (size_t m = cidx.size(); m-- > 0;) {
        if (++cidx[m] < core.dim(static_cast<int>(m))) break;
        cidx[m] = 0;
      }
    }
    total += x.value(e) * recon;
  }
  return total;
}

}  // namespace

Result<TuckerModel> Haten2NonnegativeTuckerAls(
    Engine* engine, const SparseTensor& x, std::vector<int64_t> core_dims,
    const Haten2Options& options) {
  HATEN2_RETURN_IF_ERROR(ValidateAlsInput(engine, x));
  HATEN2_RETURN_IF_ERROR(ValidateCoreDims(x, core_dims));
  const int order = x.order();
  for (int64_t e = 0; e < x.nnz(); ++e) {
    if (x.value(e) < 0.0) {
      return Status::InvalidArgument(
          "nonnegative Tucker requires a nonnegative tensor");
    }
  }

  TuckerModel model;
  AlsHarness harness(engine, options, "tucker-nn",
                     CheckpointFingerprint("tucker-nn", options.variant,
                                           options.seed, options.tolerance,
                                           core_dims, x),
                     &model);
  HATEN2_ASSIGN_OR_RETURN(AlsStart start, harness.Start(x, core_dims));
  if (start == AlsStart::kFresh) {
    Rng rng(options.seed);
    HATEN2_ASSIGN_OR_RETURN(model.core, DenseTensor::Create(core_dims));
    for (double& g : model.core.data()) g = rng.Uniform(0.1, 1.0);
    model.factors.reserve(static_cast<size_t>(order));
    for (int m = 0; m < order; ++m) {
      model.factors.push_back(DenseMatrix::RandomUniform(
          x.dim(m), core_dims[static_cast<size_t>(m)], &rng));
    }
  } else if (model.core.order() == 0) {
    // The multiplicative updates rescale the core as well as the factors,
    // so a start without one has no G to update.
    return Status::InvalidArgument(
        "nonnegative Tucker cannot start from a model without a core");
  }
  // The metric is the fit, so a resume that runs no further iteration
  // still reports the checkpointed one.
  if (start == AlsStart::kResumed && harness.metric() >= 0.0) {
    model.fit = harness.metric();
  }

  std::vector<DenseMatrix> grams;
  grams.reserve(static_cast<size_t>(order));
  for (int m = 0; m < order; ++m) grams.push_back(Gram(model.factors[m]));

  const double x_sq = x.SumSquares();
  Status loop_status = harness.Run(
      [&](int, AlsIterationOutcome* outcome) -> Status {
    // ---- Factor updates ----
    for (int n = 0; n < order; ++n) {
      HATEN2_ASSIGN_OR_RETURN(
          SliceBlocks y,
          MultiModeContract(engine, x, model.FactorPtrs(), n,
                            MergeKind::kCross, options.variant,
                            harness.cache()));
      DenseMatrix g_n = model.core.Unfold(n);  // J_n x ПJ_other
      const int64_t jn = g_n.rows();
      // Numerator: Y₍ₙ₎ G₍ₙ₎ᵀ, accumulated over nonempty slices only.
      DenseMatrix numerator(x.dim(n), jn);
      for (size_t k = 0; k < y.slice_ids.size(); ++k) {
        const double* row = y.values.RowPtr(static_cast<int64_t>(k));
        for (int64_t p = 0; p < jn; ++p) {
          double dot = 0.0;
          const double* grow = g_n.RowPtr(p);
          for (int64_t c = 0; c < y.values.cols(); ++c) {
            dot += row[c] * grow[c];
          }
          numerator(y.slice_ids[k], p) = dot;
        }
      }
      // Denominator: A⁽ⁿ⁾ · [G₍ₙ₎ (⊗ grams) G₍ₙ₎ᵀ].
      DenseMatrix kron = KronGramsExcept(grams, n);
      HATEN2_ASSIGN_OR_RETURN(DenseMatrix gk, MatMul(g_n, kron));
      HATEN2_ASSIGN_OR_RETURN(DenseMatrix b, MatMul(gk, g_n.Transposed()));
      DenseMatrix& a = model.factors[static_cast<size_t>(n)];
      HATEN2_ASSIGN_OR_RETURN(DenseMatrix denominator, MatMul(a, b));
      for (int64_t i = 0; i < a.rows(); ++i) {
        for (int64_t p = 0; p < jn; ++p) {
          double ratio = numerator(i, p) /
                         std::max(denominator(i, p), kEps);
          a(i, p) = std::max(a(i, p) * ratio, 0.0);
        }
      }
      grams[static_cast<size_t>(n)] = Gram(a);
    }

    // ---- Core update ----
    // Numerator: P = X ×ₘ A⁽ᵐ⁾ᵀ for every mode, via the distributed
    // contraction over all modes but the last plus one dense projection.
    HATEN2_ASSIGN_OR_RETURN(
        SliceBlocks y_last,
        MultiModeContract(engine, x, model.FactorPtrs(), order - 1,
                          MergeKind::kCross, options.variant,
                          harness.cache()));
    HATEN2_ASSIGN_OR_RETURN(
        DenseTensor numerator,
        TuckerCoreFromBlocks(y_last,
                             model.factors[static_cast<size_t>(order - 1)],
                             core_dims, order - 1));
    HATEN2_ASSIGN_OR_RETURN(DenseTensor denominator,
                            CoreTimesAllGrams(model.core, grams));
    for (int64_t lin = 0; lin < model.core.size(); ++lin) {
      double ratio =
          numerator.data()[static_cast<size_t>(lin)] /
          std::max(denominator.data()[static_cast<size_t>(lin)], kEps);
      double updated = model.core.data()[static_cast<size_t>(lin)] * ratio;
      model.core.data()[static_cast<size_t>(lin)] = std::max(updated, 0.0);
    }

    // ---- Fit: explicit residual (factors are not orthonormal) ----
    double inner = InnerProductWithModel(x, model.core, model.factors);
    HATEN2_ASSIGN_OR_RETURN(DenseTensor h,
                            CoreTimesAllGrams(model.core, grams));
    double model_sq = 0.0;
    for (int64_t lin = 0; lin < model.core.size(); ++lin) {
      model_sq += model.core.data()[static_cast<size_t>(lin)] *
                  h.data()[static_cast<size_t>(lin)];
    }
    double resid_sq = std::max(x_sq - 2.0 * inner + model_sq, 0.0);
    model.fit = 1.0 - std::sqrt(resid_sq / x_sq);
    model.core_norm_history.push_back(model.core.FrobeniusNorm());
    outcome->has_fit = true;
    outcome->fit = model.fit;
    outcome->has_core_norm = true;
    outcome->core_norm = model.core_norm_history.back();
    outcome->has_metric = true;
    outcome->metric = model.fit;
    return Status::OK();
      });
  if (!loop_status.ok()) return loop_status;
  return model;
}

}  // namespace haten2
