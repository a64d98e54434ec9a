#include "core/tucker.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "linalg/linalg.h"
#include "linalg/sketch.h"
#include "mapreduce/plan.h"
#include "mapreduce/scheduler.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/timer.h"

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

namespace {

/// The orthonormal start, called after AlsHarness::Start: a fresh start
/// draws factor m from RandomNormal(x.dim(m), core_dims[m]) on Rng(seed) in
/// mode order, so sketched and exact runs begin from identical factors at a
/// fixed seed; a fresh or warm start then takes one QR per mode, in mode
/// order. A resumed model is left verbatim.
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

/// One sketched mode update: project every contracted factor to
/// `sketch_size` columns (independent plan nodes), contract through the
/// fused broadcast merge over the sketched Khatri–Rao structure, then
/// range-find on the s-wide blocks. Adds the driver-side sketch and range
/// finder time to `sketch_seconds`.
Result<DenseMatrix> SketchedLeadingFactor(Engine* engine,
                                          const SparseTensor& x,
                                          const TuckerModel& model, int n,
                                          int64_t count, int64_t sketch_size,
                                          const Haten2Options& options,
                                          ContractCache* cache,
                                          double* sketch_seconds) {
  const int order = x.order();
  WallTimer sketch_timer;
  Plan plan(StrFormat("sketch-m%d", n));
  std::vector<DenseMatrix> sketched(static_cast<size_t>(order));
  std::vector<const DenseMatrix*> sketched_ptrs(static_cast<size_t>(order),
                                                nullptr);
  for (int m = 0; m < order; ++m) {
    if (m == n) continue;
    const DenseMatrix* factor_m = &model.factors[static_cast<size_t>(m)];
    const uint64_t omega_seed = SketchSeedForMode(options.seed, m);
    int node = plan.AddProducer<DenseMatrix>(
        StrFormat("Sketch[gaussian,m%d]", m), {},
        [factor_m, sketch_size, omega_seed]() -> Result<DenseMatrix> {
          return ApplySketch(*factor_m, sketch_size, omega_seed);
        },
        &sketched[static_cast<size_t>(m)]);
    plan.AnnotateContraction(node, "sketch");
    sketched_ptrs[static_cast<size_t>(m)] = &sketched[static_cast<size_t>(m)];
  }
  PlanScheduler scheduler(engine);
  HATEN2_RETURN_IF_ERROR(scheduler.Execute(plan));
  *sketch_seconds += sketch_timer.ElapsedSeconds();
  HATEN2_ASSIGN_OR_RETURN(
      SliceBlocks z, MultiModeContract(engine, x, sketched_ptrs, n,
                                       MergeKind::kSketchFused,
                                       options.variant, cache));
  WallTimer range_timer;
  Result<DenseMatrix> factor = TuckerLeadingFactor(z, count);
  *sketch_seconds += range_timer.ElapsedSeconds();
  return factor;
}

}  // namespace

Result<TuckerModel> Haten2TuckerAls(Engine* engine, const SparseTensor& x,
                                    std::vector<int64_t> core_dims,
                                    const Haten2Options& options) {
  HATEN2_RETURN_IF_ERROR(ValidateAlsInput(engine, x));
  HATEN2_RETURN_IF_ERROR(ValidateCoreDims(x, core_dims));
  if (options.exact_polish_sweeps < 0) {
    return Status::InvalidArgument(
        StrFormat("exact_polish_sweeps must be >= 0, got %d",
                  options.exact_polish_sweeps));
  }
  const int order = x.order();
  const bool sketch = options.tucker_sketch;
  // The sketch width: the largest core dimension plus a small
  // oversampling margin (the randomized-SVD literature's p ≈ 4..10).
  const int64_t sketch_size =
      *std::max_element(core_dims.begin(), core_dims.end()) + 4;
  const int polish = std::min(options.exact_polish_sweeps,
                              options.max_iterations);

  // The sketch configuration changes the iterate sequence, so it belongs in
  // the resume fingerprint.
  const std::string method = sketch ? "sketched-tucker" : "tucker";
  const std::string fingerprint_method =
      sketch ? StrFormat("sketched-tucker/gaussian/s%lld/p%d",
                         (long long)sketch_size, polish)
             : method;
  TuckerModel model;
  AlsHarness harness(engine, options, method,
                     CheckpointFingerprint(fingerprint_method,
                                           options.variant, options.seed,
                                           options.tolerance, core_dims, x),
                     &model, {x.FrobeniusNorm(), /*converge_on_equal=*/true});
  HATEN2_ASSIGN_OR_RETURN(AlsStart start, harness.Start(x, core_dims));
  HATEN2_RETURN_IF_ERROR(
      OrthonormalTuckerStart(start, x, core_dims, options.seed, &model));

  Status loop_status = harness.Run(
      [&](int iter, AlsIterationOutcome* outcome) -> Status {
      const bool sketched_sweep =
          sketch && iter <= options.max_iterations - polish;
      double sketch_seconds = 0.0;
      SliceBlocks last_y;
      for (int n = 0; n < order; ++n) {
        const int64_t count = core_dims[static_cast<size_t>(n)];
        if (sketched_sweep && n < order - 1) {
          HATEN2_ASSIGN_OR_RETURN(
              model.factors[static_cast<size_t>(n)],
              SketchedLeadingFactor(engine, x, model, n, count, sketch_size,
                                    options, harness.cache(),
                                    &sketch_seconds));
          continue;
        }
        HATEN2_ASSIGN_OR_RETURN(
            SliceBlocks y,
            MultiModeContract(engine, x, model.FactorPtrs(), n,
                              MergeKind::kCross, options.variant,
                              harness.cache()));
        HATEN2_ASSIGN_OR_RETURN(DenseMatrix factor,
                                TuckerLeadingFactor(y, count));
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
      outcome->has_metric = !sketched_sweep;
      outcome->metric = core_norm;
      if (sketch) {
        outcome->has_sketch = true;
        outcome->sketch_seconds = sketch_seconds;
        outcome->sketch_dims = sketched_sweep ? sketch_size : 0;
        outcome->sketch_polish = !sketched_sweep;
      }
      return Status::OK();
      });
  if (!loop_status.ok()) return loop_status;
  HATEN2_ASSIGN_OR_RETURN(model.fit, TuckerFit(x, model));
  return model;
}

}  // namespace haten2
