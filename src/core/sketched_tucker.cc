#include "core/sketched_tucker.h"

#include <algorithm>
#include <utility>

#include "core/als_harness.h"
#include "core/tucker.h"
#include "linalg/linalg.h"
#include "linalg/sketch.h"
#include "mapreduce/plan.h"
#include "mapreduce/scheduler.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace haten2 {

Result<TuckerModel> Haten2SketchedTuckerAls(Engine* engine,
                                            const SparseTensor& x,
                                            std::vector<int64_t> core_dims,
                                            const Haten2Options& options) {
  HATEN2_RETURN_IF_ERROR(ValidateAlsInput(engine, x));
  HATEN2_RETURN_IF_ERROR(ValidateCoreDims(x, core_dims));
  const int order = x.order();
  const int64_t max_core =
      *std::max_element(core_dims.begin(), core_dims.end());

  const ClusterConfig& config = engine->config();
  if (config.tucker_sketch == "none") {
    return Status::InvalidArgument(
        "Haten2SketchedTuckerAls needs ClusterConfig::tucker_sketch of "
        "\"gaussian\" or \"countsketch\" (exact runs go through "
        "Haten2TuckerAls)");
  }
  HATEN2_ASSIGN_OR_RETURN(SketchKind kind,
                          ParseSketchKind(config.tucker_sketch));
  // Auto sketch width: the largest core dimension plus a small
  // oversampling margin (the randomized-SVD literature's p ≈ 4..10).
  const int64_t sketch_size =
      config.sketch_size > 0 ? config.sketch_size : max_core + 4;
  if (sketch_size < max_core) {
    return Status::InvalidArgument(StrFormat(
        "sketch_size %lld is smaller than the largest core dimension %lld; "
        "the range finder cannot extract more directions than the sketch "
        "keeps",
        (long long)sketch_size, (long long)max_core));
  }
  const int polish =
      std::min(config.exact_polish_sweeps, options.max_iterations);

  // The sketch configuration changes the iterate sequence, so it belongs in
  // the resume fingerprint even though the manifest's method stays the
  // plain family name.
  const uint64_t fingerprint = CheckpointFingerprint(
      StrFormat("sketched-tucker/%s/s%lld/p%d", SketchKindName(kind),
                (long long)sketch_size, polish),
      options.variant, options.seed, options.tolerance, core_dims, x);

  TuckerModel model;
  AlsHarness harness(engine, options, "sketched-tucker", fingerprint, &model,
                     {x.FrobeniusNorm(), /*converge_on_equal=*/true});
  HATEN2_ASSIGN_OR_RETURN(AlsStart start, harness.Start(x, core_dims));
  HATEN2_RETURN_IF_ERROR(
      OrthonormalTuckerStart(start, x, core_dims, options.seed, &model));

  Status loop_status = harness.Run(
      [&](int iter, AlsIterationOutcome* outcome) -> Status {
        const bool polish_sweep = iter > options.max_iterations - polish;
        double sketch_seconds = 0.0;
        SliceBlocks last_y;
        for (int n = 0; n < order; ++n) {
          // The last mode is exact on every sweep: its CrossMerge blocks
          // serve both the factor update and the core, so the sweep's
          // metric is always the true ||G||.
          const bool exact_mode = polish_sweep || n == order - 1;
          if (exact_mode) {
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
            continue;
          }
          // Sketched update: project every contracted factor to s columns
          // (independent plan nodes), contract through the fused broadcast
          // merge over the sketched Khatri–Rao structure, then range-find
          // on the s-wide blocks.
          WallTimer sketch_timer;
          Plan plan(StrFormat("sketch-m%d", n));
          std::vector<DenseMatrix> sketched(static_cast<size_t>(order));
          for (int m = 0; m < order; ++m) {
            if (m == n) continue;
            const DenseMatrix* factor_m =
                &model.factors[static_cast<size_t>(m)];
            const uint64_t omega_seed = SketchSeedForMode(options.seed, m);
            int node = plan.AddProducer<DenseMatrix>(
                StrFormat("Sketch[%s,m%d]", SketchKindName(kind), m), {},
                [factor_m, kind, sketch_size,
                 omega_seed]() -> Result<DenseMatrix> {
                  return ApplySketch(*factor_m, kind, sketch_size,
                                     omega_seed);
                },
                &sketched[static_cast<size_t>(m)]);
            plan.AnnotateContraction(node, "sketch");
          }
          PlanScheduler scheduler(engine);
          HATEN2_RETURN_IF_ERROR(scheduler.Execute(plan));
          sketch_seconds += sketch_timer.ElapsedSeconds();
          std::vector<const DenseMatrix*> sketched_ptrs(
              static_cast<size_t>(order), nullptr);
          for (int m = 0; m < order; ++m) {
            if (m != n) sketched_ptrs[static_cast<size_t>(m)] =
                &sketched[static_cast<size_t>(m)];
          }
          HATEN2_ASSIGN_OR_RETURN(
              SliceBlocks z,
              MultiModeContract(engine, x, sketched_ptrs, n,
                                MergeKind::kSketchFused, options.variant,
                                harness.cache()));
          WallTimer range_timer;
          HATEN2_ASSIGN_OR_RETURN(
              DenseMatrix factor,
              TuckerLeadingFactor(z, core_dims[static_cast<size_t>(n)]));
          sketch_seconds += range_timer.ElapsedSeconds();
          model.factors[static_cast<size_t>(n)] = std::move(factor);
        }
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
        // Sketched sweeps always run their budget: the projection noise
        // makes early ||G|| deltas untrustworthy, and converging before the
        // polish phase would skip the accuracy-recovery sweeps entirely.
        outcome->has_metric = polish_sweep;
        outcome->metric = core_norm;
        outcome->has_sketch = true;
        outcome->sketch_seconds = sketch_seconds;
        outcome->sketch_dims = polish_sweep ? 0 : sketch_size;
        outcome->sketch_polish = polish_sweep;
        return Status::OK();
      });
  if (!loop_status.ok()) return loop_status;
  HATEN2_ASSIGN_OR_RETURN(model.fit, TuckerFit(x, model));
  return model;
}

}  // namespace haten2
