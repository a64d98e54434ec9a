#include "core/parafac.h"

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

constexpr double kNonnegativeEps = 1e-12;

/// Shared by the warm-start and checkpoint-resume paths: the given model
/// must fit the tensor's order, the requested rank, and every mode size.
Status CheckKruskalShape(const KruskalModel& init, const SparseTensor& x,
                         int64_t rank, const char* what) {
  const int order = x.order();
  if (static_cast<int>(init.factors.size()) != order || init.rank() != rank ||
      static_cast<int64_t>(init.lambda.size()) != rank) {
    return Status::InvalidArgument(
        std::string(what) + " model does not match the tensor order or rank");
  }
  for (int m = 0; m < order; ++m) {
    if (init.factors[static_cast<size_t>(m)].rows() != x.dim(m)) {
      return Status::InvalidArgument(StrFormat(
          "%s factor %d rows do not match mode size", what, m));
    }
  }
  return Status::OK();
}

/// <X, M> from the sweep's last MTTKRP Y = X₍N₎(⊙_{m<N} A_m). Every other
/// factor is final by the time Y is taken, so
/// <X, M> = Σ_r λ_r Σ_i A_N(i, r) · Y(i, r) — O(I_N·R), no pass over X.
double InnerProductFromLastMttkrp(const DenseMatrix& a_last,
                                  const DenseMatrix& y_last,
                                  const std::vector<double>& lambda) {
  const int64_t rank = a_last.cols();
  std::vector<double> column_dots(static_cast<size_t>(rank), 0.0);
  for (int64_t i = 0; i < a_last.rows(); ++i) {
    const double* a = a_last.RowPtr(i);
    const double* y = y_last.RowPtr(i);
    for (int64_t r = 0; r < rank; ++r) {
      column_dots[static_cast<size_t>(r)] += a[r] * y[r];
    }
  }
  double inner = 0.0;
  for (int64_t r = 0; r < rank; ++r) {
    inner += lambda[static_cast<size_t>(r)] *
             column_dots[static_cast<size_t>(r)];
  }
  return inner;
}

}  // namespace

Result<KruskalModel> Haten2ParafacAls(Engine* engine, const SparseTensor& x,
                                      int64_t rank,
                                      const Haten2Options& options) {
  if (engine == nullptr) {
    return Status::InvalidArgument("engine must not be null");
  }
  if (rank <= 0) {
    return Status::InvalidArgument("rank must be positive");
  }
  if (x.order() < 2 || x.order() > kMaxMrOrder) {
    return Status::InvalidArgument(
        StrFormat("HaTen2-PARAFAC supports orders 2..%d, got %d", kMaxMrOrder,
                  x.order()));
  }
  if (x.nnz() == 0) {
    return Status::InvalidArgument("cannot decompose an all-zero tensor");
  }
  const int order = x.order();

  const std::string ckpt_method =
      options.nonnegative ? "parafac-nn" : "parafac";
  const uint64_t fingerprint =
      CheckpointFingerprint(ckpt_method, options.variant, options.seed,
                            options.tolerance, {rank}, x);

  Rng rng(options.seed);
  KruskalModel model;
  int start_iteration = 0;
  bool has_resume_metric = false;
  double resume_metric = 0.0;
  if (options.resume_from != nullptr) {
    const LoadedCheckpoint& ckpt = *options.resume_from;
    HATEN2_RETURN_IF_ERROR(ValidateCheckpointForResume(
        ckpt.manifest, ckpt_method, "kruskal", fingerprint));
    HATEN2_RETURN_IF_ERROR(
        CheckKruskalShape(ckpt.kruskal, x, rank, "checkpoint"));
    model.lambda = ckpt.kruskal.lambda;
    model.factors = ckpt.kruskal.factors;
    // Continue — not restart — the histories and iteration numbering, so a
    // resumed trace appends after the checkpointed entries instead of
    // duplicating them.
    model.fit_history = ckpt.manifest.fit_history;
    model.iterations = ckpt.manifest.iteration;
    if (!model.fit_history.empty()) model.fit = model.fit_history.back();
    start_iteration = ckpt.manifest.iteration;
    has_resume_metric = true;
    resume_metric = ckpt.manifest.metric;
  } else if (options.initial_kruskal != nullptr) {
    const KruskalModel& init = *options.initial_kruskal;
    HATEN2_RETURN_IF_ERROR(CheckKruskalShape(init, x, rank, "warm-start"));
    model.lambda = init.lambda;
    model.factors = init.factors;
  } else {
    model.lambda.assign(static_cast<size_t>(rank), 1.0);
    model.factors.reserve(static_cast<size_t>(order));
    for (int m = 0; m < order; ++m) {
      model.factors.push_back(
          DenseMatrix::RandomUniform(x.dim(m), rank, &rng));
    }
  }

  std::vector<DenseMatrix> grams;
  grams.reserve(static_cast<size_t>(order));
  for (int m = 0; m < order; ++m) grams.push_back(Gram(model.factors[m]));
  // The fit needs ||X||² once; <X, M> and ||M||² come from the sweep.
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
      m.method = ckpt_method;
      m.model_kind = "kruskal";
      m.fingerprint = fingerprint;
      m.iteration = iteration;
      m.metric = prev_metric;
      m.fit_history = model.fit_history;
      return checkpoint_writer->Write(m, &model, nullptr);
    };
  }
  AlsHarness harness(engine, harness_options);
  Status loop_status = harness.Run(
      [&](int iter, AlsIterationOutcome* outcome) -> Status {
      DenseMatrix last_mttkrp;
      for (int n = 0; n < order; ++n) {
        HATEN2_ASSIGN_OR_RETURN(
            SliceBlocks y,
            MultiModeContract(engine, x, model.FactorPtrs(), n,
                              MergeKind::kPairwise, options.variant,
                              harness.cache()));
        DenseMatrix mttkrp = y.ToDenseMatrix();  // I_n x R

        // V = ∗_{m != n} A_mᵀ A_m.
        DenseMatrix v(rank, rank);
        v.Fill(1.0);
        for (int m = 0; m < order; ++m) {
          if (m == n) continue;
          for (int64_t r = 0; r < rank; ++r) {
            for (int64_t s = 0; s < rank; ++s) {
              v(r, s) *= grams[static_cast<size_t>(m)](r, s);
            }
          }
        }

        DenseMatrix updated;
        if (options.nonnegative) {
          // Lee-Seung multiplicative update:
          // A ← A ∘ MTTKRP / (A·V), keeping entries nonnegative.
          DenseMatrix& a = model.factors[static_cast<size_t>(n)];
          HATEN2_ASSIGN_OR_RETURN(DenseMatrix av, MatMul(a, v));
          updated = a;
          for (int64_t i = 0; i < a.rows(); ++i) {
            for (int64_t r = 0; r < rank; ++r) {
              double denom = av(i, r);
              double num = mttkrp(i, r);
              updated(i, r) =
                  a(i, r) * (num / std::max(denom, kNonnegativeEps));
              if (updated(i, r) < 0.0) updated(i, r) = 0.0;
            }
          }
        } else {
          HATEN2_ASSIGN_OR_RETURN(updated, SolveRightPinv(mttkrp, v));
        }
        NormalizeColumns(&updated, &model.lambda);
        model.factors[static_cast<size_t>(n)] = std::move(updated);
        grams[static_cast<size_t>(n)] =
            Gram(model.factors[static_cast<size_t>(n)]);
        if (n == order - 1) last_mttkrp = std::move(mttkrp);
      }
      model.iterations = iter;
      if (options.compute_fit) {
        if (x_sq == 0.0) {
          return Status::InvalidArgument(
              "fit undefined for an all-zero tensor");
        }
        // Same terms as KruskalFit, from state the sweep already holds.
        HATEN2_ASSIGN_OR_RETURN(
            double model_sq, KruskalNormSquaredFromGrams(model.lambda, grams));
        const double inner = InnerProductFromLastMttkrp(
            model.factors.back(), last_mttkrp, model.lambda);
        const double fit = KruskalFitFromTerms(x_sq, inner, model_sq);
        model.fit = fit;
        model.fit_history.push_back(fit);
        outcome->has_fit = true;
        outcome->fit = fit;
        outcome->has_metric = true;
        outcome->metric = fit;
      }
      outcome->lambda = model.lambda;
      return Status::OK();
      });
  if (!loop_status.ok()) return loop_status;
  return model;
}

}  // namespace haten2
