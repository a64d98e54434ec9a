#include "core/missing_values.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/als_harness.h"
#include "linalg/linalg.h"
#include "util/random.h"

namespace haten2 {

namespace {

/// Model value at one coordinate: sum_r lambda_r prod_m A_m(i_m, r).
double ModelValueAt(const KruskalModel& model, const int64_t* idx,
                    int order) {
  double total = 0.0;
  const int64_t rank = model.rank();
  for (int64_t r = 0; r < rank; ++r) {
    double p = model.lambda[static_cast<size_t>(r)];
    for (int m = 0; m < order; ++m) {
      p *= model.factors[static_cast<size_t>(m)](idx[m], r);
    }
    total += p;
  }
  return total;
}

Status ValidateMask(const SparseTensor& x, const SparseTensor& observed) {
  if (observed.dims() != x.dims()) {
    return Status::InvalidArgument("mask dims must match the data tensor");
  }
  if (!observed.canonical() || !x.canonical()) {
    return Status::FailedPrecondition(
        "data and mask must be canonical (call Canonicalize())");
  }
  for (int64_t e = 0; e < observed.nnz(); ++e) {
    if (observed.value(e) != 1.0) {
      return Status::InvalidArgument(
          "mask values must be exactly 1.0 (binary observation mask)");
    }
  }
  std::vector<int64_t> idx(static_cast<size_t>(x.order()));
  for (int64_t e = 0; e < x.nnz(); ++e) {
    for (int m = 0; m < x.order(); ++m) {
      idx[static_cast<size_t>(m)] = x.index(e, m);
    }
    if (observed.Get(idx) != 1.0) {
      return Status::InvalidArgument(
          "every nonzero of x must be inside the observation mask");
    }
  }
  return Status::OK();
}

/// Residual at observed cells: D(c) = x(c) - model(c) for c in the mask
/// (x(c) = 0 for observed-but-zero cells).
Result<SparseTensor> ObservedResidual(const SparseTensor& x,
                                      const SparseTensor& observed,
                                      const KruskalModel& model) {
  HATEN2_ASSIGN_OR_RETURN(SparseTensor d, SparseTensor::Create(x.dims()));
  d.Reserve(observed.nnz());
  std::vector<int64_t> idx(static_cast<size_t>(x.order()));
  for (int64_t e = 0; e < observed.nnz(); ++e) {
    const int64_t* ptr = observed.IndexPtr(e);
    for (int m = 0; m < x.order(); ++m) {
      idx[static_cast<size_t>(m)] = ptr[m];
    }
    double value = x.Get(idx) - ModelValueAt(model, ptr, x.order());
    if (value != 0.0) d.AppendUnchecked(ptr, value);
  }
  d.Canonicalize();
  return d;
}

}  // namespace

Result<double> ObservedFit(const SparseTensor& x,
                           const SparseTensor& observed,
                           const KruskalModel& model) {
  HATEN2_RETURN_IF_ERROR(ValidateMask(x, observed));
  double resid_sq = 0.0;
  double data_sq = 0.0;
  std::vector<int64_t> idx(static_cast<size_t>(x.order()));
  for (int64_t e = 0; e < observed.nnz(); ++e) {
    const int64_t* ptr = observed.IndexPtr(e);
    for (int m = 0; m < x.order(); ++m) {
      idx[static_cast<size_t>(m)] = ptr[m];
    }
    double data = x.Get(idx);
    double diff = data - ModelValueAt(model, ptr, x.order());
    resid_sq += diff * diff;
    data_sq += data * data;
  }
  if (data_sq == 0.0) {
    return Status::InvalidArgument("no observed data mass");
  }
  return 1.0 - std::sqrt(resid_sq / data_sq);
}

Result<MissingValueModel> Haten2ParafacMissing(
    Engine* engine, const SparseTensor& x, const SparseTensor& observed,
    int64_t rank, const MissingValueOptions& options) {
  HATEN2_RETURN_IF_ERROR(ValidateAlsInput(engine, x));
  if (rank <= 0) {
    return Status::InvalidArgument("rank must be positive");
  }
  HATEN2_RETURN_IF_ERROR(ValidateMask(x, observed));

  const int order = x.order();
  Haten2Options run = options.base;
  run.max_iterations = options.em_iterations;
  run.tolerance = options.em_tolerance;
  // The EM iterates depend on the observation mask as well as the tensor, so
  // the mask's size rides along in the rank/core slot of the fingerprint.
  const uint64_t fingerprint =
      CheckpointFingerprint("parafac-em", run.variant, run.seed,
                            run.tolerance, {rank, observed.nnz()}, x);

  KruskalModel model;
  AlsHarness harness(engine, run, "parafac-em", fingerprint, &model);
  HATEN2_ASSIGN_OR_RETURN(
      AlsStart start,
      harness.Start(x, std::vector<int64_t>(static_cast<size_t>(order), rank)));
  if (start == AlsStart::kFresh) {
    Rng rng(run.seed);
    model.lambda.assign(static_cast<size_t>(rank), 1.0);
    for (int m = 0; m < order; ++m) {
      model.factors.push_back(
          DenseMatrix::RandomUniform(x.dim(m), rank, &rng));
    }
  }

  Status loop_status = harness.Run(
      [&](int, AlsIterationOutcome* outcome) -> Status {
    // E-step: freeze the model; residual D makes X̂ = M_old + D match x on
    // the mask and the model off it.
    KruskalModel frozen = model;
    HATEN2_ASSIGN_OR_RETURN(SparseTensor residual,
                            ObservedResidual(x, observed, frozen));

    // M-step: one ALS sweep on X̂. MTTKRP(X̂, n) = MTTKRP_MR(D, n) +
    // A_old diag(λ_old) * (∗_{m≠n} A_m_oldᵀ A_m_cur) by multilinearity.
    for (int n = 0; n < order; ++n) {
      DenseMatrix mttkrp(x.dim(n), rank);
      if (residual.nnz() > 0) {
        HATEN2_ASSIGN_OR_RETURN(
            SliceBlocks y,
            MultiModeContract(engine, residual, model.FactorPtrs(), n,
                              MergeKind::kPairwise, run.variant));
        mttkrp = y.ToDenseMatrix();
      }
      // Closed-form MTTKRP of the frozen model tensor.
      DenseMatrix cross(rank, rank);
      cross.Fill(1.0);
      for (int m = 0; m < order; ++m) {
        if (m == n) continue;
        HATEN2_ASSIGN_OR_RETURN(
            DenseMatrix g,
            MatMulTransA(frozen.factors[static_cast<size_t>(m)],
                         model.factors[static_cast<size_t>(m)]));
        for (int64_t s = 0; s < rank; ++s) {
          for (int64_t r = 0; r < rank; ++r) cross(s, r) *= g(s, r);
        }
      }
      for (int64_t i = 0; i < x.dim(n); ++i) {
        for (int64_t r = 0; r < rank; ++r) {
          double add = 0.0;
          for (int64_t s = 0; s < rank; ++s) {
            add += frozen.factors[static_cast<size_t>(n)](i, s) *
                   frozen.lambda[static_cast<size_t>(s)] * cross(s, r);
          }
          mttkrp(i, r) += add;
        }
      }

      DenseMatrix v(rank, rank);
      v.Fill(1.0);
      for (int m = 0; m < order; ++m) {
        if (m == n) continue;
        DenseMatrix g = Gram(model.factors[static_cast<size_t>(m)]);
        for (int64_t s = 0; s < rank; ++s) {
          for (int64_t r = 0; r < rank; ++r) v(s, r) *= g(s, r);
        }
      }
      HATEN2_ASSIGN_OR_RETURN(DenseMatrix updated,
                              SolveRightPinv(mttkrp, v));
      NormalizeColumns(&updated, &model.lambda);
      model.factors[static_cast<size_t>(n)] = std::move(updated);
    }

    HATEN2_ASSIGN_OR_RETURN(double fit, ObservedFit(x, observed, model));
    model.fit = fit;
    model.fit_history.push_back(fit);
    outcome->has_fit = true;
    outcome->fit = fit;
    outcome->has_metric = true;
    outcome->metric = fit;
    outcome->lambda = model.lambda;
    return Status::OK();
      });
  if (!loop_status.ok()) return loop_status;
  MissingValueModel out;
  out.observed_fit = model.fit;
  out.observed_fit_history = model.fit_history;
  out.em_iterations = model.iterations;
  out.model = std::move(model);
  return out;
}

}  // namespace haten2
