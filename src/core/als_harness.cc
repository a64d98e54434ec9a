#include "core/als_harness.h"

#include <cmath>
#include <utility>

#include "util/timer.h"

namespace haten2 {

Status AlsHarness::Run(const IterationBody& body) {
  // -1.0 is the legacy cold-start sentinel; a resumed run restores the
  // exact prev-metric double recorded at checkpoint time, so the first
  // resumed convergence test is bit-identical to the uninterrupted one.
  double prev_metric =
      options_.has_resume_metric ? options_.resume_metric : -1.0;
  for (int iter = options_.start_iteration + 1;
       iter <= options_.max_iterations; ++iter) {
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
    bool converged = false;
    if (outcome.has_metric) {
      const double bound = options_.tolerance * options_.tolerance_scale;
      if (prev_metric >= 0.0) {
        const double delta = std::fabs(outcome.metric - prev_metric);
        converged =
            options_.converge_on_equal ? delta <= bound : delta < bound;
      }
      if (!converged) prev_metric = outcome.metric;
    }
    if (converged) break;
    if (options_.checkpoint_every > 0 && options_.checkpoint_fn &&
        iter % options_.checkpoint_every == 0 &&
        iter < options_.max_iterations) {
      HATEN2_RETURN_IF_ERROR(options_.checkpoint_fn(iter, prev_metric));
    }
  }
  return Status::OK();
}

}  // namespace haten2
