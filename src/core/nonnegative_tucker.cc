#include "core/nonnegative_tucker.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/als_harness.h"
#include "core/records.h"
#include "linalg/linalg.h"
#include "tensor/tensor_ops.h"
#include "util/random.h"
#include "util/string_util.h"

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
  if (engine == nullptr) {
    return Status::InvalidArgument("engine must not be null");
  }
  if (x.order() < 2 || x.order() > kMaxMrOrder) {
    return Status::InvalidArgument(
        StrFormat("supported orders are 2..%d", kMaxMrOrder));
  }
  if (x.nnz() == 0) {
    return Status::InvalidArgument("cannot decompose an all-zero tensor");
  }
  const int order = x.order();
  if (static_cast<int>(core_dims.size()) != order) {
    return Status::InvalidArgument("core_dims must have one entry per mode");
  }
  for (int m = 0; m < order; ++m) {
    if (core_dims[static_cast<size_t>(m)] <= 0 ||
        core_dims[static_cast<size_t>(m)] > x.dim(m)) {
      return Status::InvalidArgument("core dimension out of range");
    }
  }
  for (int64_t e = 0; e < x.nnz(); ++e) {
    if (x.value(e) < 0.0) {
      return Status::InvalidArgument(
          "nonnegative Tucker requires a nonnegative tensor");
    }
  }

  const uint64_t fingerprint =
      CheckpointFingerprint("tucker-nn", options.variant, options.seed,
                            options.tolerance, core_dims, x);

  Rng rng(options.seed);
  TuckerModel model;
  int start_iteration = 0;
  bool has_resume_metric = false;
  double resume_metric = 0.0;
  if (options.resume_from != nullptr) {
    const LoadedCheckpoint& ckpt = *options.resume_from;
    HATEN2_RETURN_IF_ERROR(ValidateCheckpointForResume(
        ckpt.manifest, "tucker-nn", "tucker", fingerprint));
    if (static_cast<int>(ckpt.tucker.factors.size()) != order ||
        ckpt.tucker.core.dims() != core_dims) {
      return Status::InvalidArgument(
          "checkpoint model does not match the tensor order or core dims");
    }
    for (int m = 0; m < order; ++m) {
      const DenseMatrix& f = ckpt.tucker.factors[static_cast<size_t>(m)];
      if (f.rows() != x.dim(m) ||
          f.cols() != core_dims[static_cast<size_t>(m)]) {
        return Status::InvalidArgument(
            StrFormat("checkpoint factor %d shape does not match", m));
      }
    }
    // The multiplicative updates rescale the *core* as well as the factors,
    // so resuming must restore both — factors alone would restart from a
    // different point in the iterate sequence.
    model.core = ckpt.tucker.core;
    model.factors = ckpt.tucker.factors;
    model.core_norm_history = ckpt.manifest.core_norm_history;
    model.iterations = ckpt.manifest.iteration;
    start_iteration = ckpt.manifest.iteration;
    has_resume_metric = true;
    resume_metric = ckpt.manifest.metric;
    if (ckpt.manifest.metric >= 0.0) model.fit = ckpt.manifest.metric;
  } else {
    HATEN2_ASSIGN_OR_RETURN(model.core, DenseTensor::Create(core_dims));
    for (double& g : model.core.data()) g = rng.Uniform(0.1, 1.0);
    model.factors.reserve(static_cast<size_t>(order));
    for (int m = 0; m < order; ++m) {
      model.factors.push_back(DenseMatrix::RandomUniform(
          x.dim(m), core_dims[static_cast<size_t>(m)], &rng));
    }
  }

  std::vector<DenseMatrix> grams;
  grams.reserve(static_cast<size_t>(order));
  for (int m = 0; m < order; ++m) grams.push_back(Gram(model.factors[m]));

  const double x_sq = x.SumSquares();
  AlsHarness::Options harness_options;
  harness_options.max_iterations = options.max_iterations;
  harness_options.tolerance = options.tolerance;
  harness_options.trace = options.trace;
  harness_options.start_iteration = start_iteration;
  harness_options.has_resume_metric = has_resume_metric;
  harness_options.resume_metric = resume_metric;
  harness_options.external_cache = options.contract_cache;
  std::optional<CheckpointWriter> checkpoint_writer;
  if (options.checkpoint != nullptr) {
    checkpoint_writer.emplace(*options.checkpoint);
    harness_options.checkpoint_every = options.checkpoint->every_n_iterations;
    harness_options.checkpoint_fn = [&](int iteration, double prev_metric) {
      CheckpointManifest m;
      m.method = "tucker-nn";
      m.model_kind = "tucker";
      m.fingerprint = fingerprint;
      m.iteration = iteration;
      m.metric = prev_metric;
      m.core_norm_history = model.core_norm_history;
      return checkpoint_writer->Write(m, nullptr, &model);
    };
  }
  AlsHarness harness(engine, harness_options);
  Status loop_status = harness.Run(
      [&](int iter, AlsIterationOutcome* outcome) -> Status {
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
    const DenseMatrix& a_last = model.factors[static_cast<size_t>(order - 1)];
    DenseMatrix p_unfolded(core_dims[static_cast<size_t>(order - 1)],
                           y_last.BlockSize());
    for (size_t k = 0; k < y_last.slice_ids.size(); ++k) {
      const double* row = y_last.values.RowPtr(static_cast<int64_t>(k));
      for (int64_t p = 0; p < p_unfolded.rows(); ++p) {
        double w = a_last(y_last.slice_ids[k], p);
        if (w == 0.0) continue;
        double* prow = p_unfolded.RowPtr(p);
        for (int64_t c = 0; c < p_unfolded.cols(); ++c) prow[c] += w * row[c];
      }
    }
    HATEN2_ASSIGN_OR_RETURN(
        DenseTensor numerator,
        DenseTensor::Fold(p_unfolded, order - 1, core_dims));
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
    model.iterations = iter;
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
