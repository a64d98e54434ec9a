#include "core/als_harness.h"

#include <cmath>
#include <utility>

#include "core/records.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace haten2 {

namespace {

/// One factor per mode, factor m x.dim(m) × columns[m].
Status CheckFactors(const std::vector<DenseMatrix>& factors,
                    const SparseTensor& x,
                    const std::vector<int64_t>& columns, const char* what) {
  if (static_cast<int>(factors.size()) != x.order()) {
    return Status::InvalidArgument(
        StrFormat("%s model has %zu factors for an order-%d tensor", what,
                  factors.size(), x.order()));
  }
  for (int m = 0; m < x.order(); ++m) {
    const DenseMatrix& f = factors[static_cast<size_t>(m)];
    const int64_t cols = columns[static_cast<size_t>(m)];
    if (f.rows() != x.dim(m) || f.cols() != cols) {
      return Status::InvalidArgument(StrFormat(
          "%s factor %d is %lldx%lld, expected %lldx%lld", what, m,
          (long long)f.rows(), (long long)f.cols(), (long long)x.dim(m),
          (long long)cols));
    }
  }
  return Status::OK();
}

Status CheckShape(const KruskalModel& model, const SparseTensor& x,
                  const std::vector<int64_t>& columns, const char* what) {
  HATEN2_RETURN_IF_ERROR(CheckFactors(model.factors, x, columns, what));
  if (static_cast<int64_t>(model.lambda.size()) != columns[0]) {
    return Status::InvalidArgument(
        StrFormat("%s model has %zu weights for rank %lld", what,
                  model.lambda.size(), (long long)columns[0]));
  }
  return Status::OK();
}

Status CheckShape(const TuckerModel& model, const SparseTensor& x,
                  const std::vector<int64_t>& columns, const char* what) {
  HATEN2_RETURN_IF_ERROR(CheckFactors(model.factors, x, columns, what));
  if (model.core.order() != 0 && model.core.dims() != columns) {
    return Status::InvalidArgument(
        StrFormat("%s core does not have the requested core dims", what));
  }
  return Status::OK();
}

}  // namespace

Status ValidateAlsInput(const Engine* engine, const SparseTensor& x) {
  if (engine == nullptr) {
    return Status::InvalidArgument("engine must not be null");
  }
  if (x.order() < 2 || x.order() > kMaxMrOrder) {
    return Status::InvalidArgument(
        StrFormat("the ALS drivers support orders 2..%d, got %d",
                  kMaxMrOrder, x.order()));
  }
  if (x.nnz() == 0) {
    return Status::InvalidArgument("cannot decompose an all-zero tensor");
  }
  return Status::OK();
}

Status ValidateCoreDims(const SparseTensor& x,
                        const std::vector<int64_t>& core_dims) {
  if (static_cast<int>(core_dims.size()) != x.order()) {
    return Status::InvalidArgument("core_dims must have one entry per mode");
  }
  for (int m = 0; m < x.order(); ++m) {
    const int64_t dim = core_dims[static_cast<size_t>(m)];
    if (dim <= 0 || dim > x.dim(m)) {
      return Status::InvalidArgument(StrFormat(
          "core dimension %lld invalid for mode %d of size %lld",
          (long long)dim, m, (long long)x.dim(m)));
    }
  }
  return Status::OK();
}

AlsHarness::AlsHarness(Engine* engine, const Haten2Options& options,
                       std::string method, uint64_t fingerprint,
                       KruskalModel* kruskal, TuckerModel* tucker,
                       AlsConvergence convergence)
    : engine_(engine),
      options_(options),
      convergence_(convergence),
      method_(std::move(method)),
      fingerprint_(fingerprint),
      kruskal_(kruskal),
      tucker_(tucker) {
  if (options_.checkpoint != nullptr) {
    checkpoint_writer_.emplace(*options_.checkpoint);
  }
}

Result<AlsStart> AlsHarness::Start(const SparseTensor& x,
                                   const std::vector<int64_t>& columns) {
  if (options_.resume_from != nullptr) {
    const LoadedCheckpoint& ckpt = *options_.resume_from;
    const CheckpointManifest& manifest = ckpt.manifest;
    HATEN2_RETURN_IF_ERROR(ValidateCheckpointForResume(
        manifest, method_, kruskal_ != nullptr ? "kruskal" : "tucker",
        fingerprint_));
    // Verbatim: the text format round-trips doubles exactly, and anything
    // applied here (a defensive QR, say) would move the factors in the last
    // ulp and break the resumed run's bit-identity with the uninterrupted
    // one. Histories continue rather than restart, so a resumed trace
    // appends after the checkpointed entries instead of duplicating them.
    if (kruskal_ != nullptr) {
      HATEN2_RETURN_IF_ERROR(
          CheckShape(ckpt.kruskal, x, columns, "checkpoint"));
      kruskal_->lambda = ckpt.kruskal.lambda;
      kruskal_->factors = ckpt.kruskal.factors;
      kruskal_->fit_history = manifest.fit_history;
      if (!manifest.fit_history.empty()) {
        kruskal_->fit = manifest.fit_history.back();
      }
      kruskal_->iterations = manifest.iteration;
    } else {
      HATEN2_RETURN_IF_ERROR(
          CheckShape(ckpt.tucker, x, columns, "checkpoint"));
      tucker_->factors = ckpt.tucker.factors;
      tucker_->core = ckpt.tucker.core;
      tucker_->core_norm_history = manifest.core_norm_history;
      tucker_->iterations = manifest.iteration;
    }
    start_iteration_ = manifest.iteration;
    prev_metric_ = manifest.metric;
    return AlsStart::kResumed;
  }
  if (kruskal_ != nullptr && options_.initial_kruskal != nullptr) {
    const KruskalModel& init = *options_.initial_kruskal;
    HATEN2_RETURN_IF_ERROR(CheckShape(init, x, columns, "warm-start"));
    kruskal_->lambda = init.lambda;
    kruskal_->factors = init.factors;
    return AlsStart::kWarm;
  }
  if (tucker_ != nullptr && options_.initial_tucker != nullptr) {
    const TuckerModel& init = *options_.initial_tucker;
    HATEN2_RETURN_IF_ERROR(CheckShape(init, x, columns, "warm-start"));
    tucker_->factors = init.factors;
    tucker_->core = init.core;
    return AlsStart::kWarm;
  }
  return AlsStart::kFresh;
}

Status AlsHarness::Run(const IterationBody& body) {
  const int checkpoint_every =
      checkpoint_writer_ ? checkpoint_writer_->options().every_n_iterations
                         : 0;
  for (int iter = start_iteration_ + 1; iter <= options_.max_iterations;
       ++iter) {
    const int64_t first_job_id = engine_->NextJobId();
    const int64_t first_plan_id = engine_->NextPlanId();
    WallTimer iter_timer;
    AlsIterationOutcome outcome;
    Status iter_status = body(iter, &outcome);
    if (options_.trace != nullptr) {
      IterationStats it;
      it.iteration = iter;
      it.wall_seconds = iter_timer.ElapsedSeconds();
      it.has_fit = outcome.has_fit;
      it.fit = outcome.fit;
      it.has_core_norm = outcome.has_core_norm;
      it.core_norm = outcome.core_norm;
      it.lambda = std::move(outcome.lambda);
      it.has_sketch = outcome.has_sketch;
      it.sketch_seconds = outcome.sketch_seconds;
      it.sketch_dims = outcome.sketch_dims;
      it.sketch_polish = outcome.sketch_polish;
      it.pipeline = engine_->PipelineSince(first_job_id, first_plan_id);
      options_.trace->iterations.push_back(std::move(it));
    }
    if (!iter_status.ok()) return iter_status;
    if (kruskal_ != nullptr) {
      kruskal_->iterations = iter;
    } else {
      tucker_->iterations = iter;
    }
    bool converged = false;
    if (outcome.has_metric) {
      const double bound =
          options_.tolerance * convergence_.tolerance_scale;
      if (prev_metric_ >= 0.0) {
        const double delta = std::fabs(outcome.metric - prev_metric_);
        converged =
            convergence_.converge_on_equal ? delta <= bound : delta < bound;
      }
      if (!converged) prev_metric_ = outcome.metric;
    }
    if (converged) break;
    if (checkpoint_every > 0 && iter % checkpoint_every == 0 &&
        iter < options_.max_iterations) {
      HATEN2_RETURN_IF_ERROR(WriteCheckpoint(iter));
    }
  }
  return Status::OK();
}

Status AlsHarness::WriteCheckpoint(int iteration) {
  CheckpointManifest manifest;
  manifest.method = method_;
  manifest.fingerprint = fingerprint_;
  manifest.iteration = iteration;
  manifest.metric = prev_metric_;
  if (kruskal_ != nullptr) {
    manifest.model_kind = "kruskal";
    manifest.fit_history = kruskal_->fit_history;
  } else {
    manifest.model_kind = "tucker";
    manifest.core_norm_history = tucker_->core_norm_history;
  }
  return checkpoint_writer_->Write(manifest, kruskal_, tucker_);
}

}  // namespace haten2
