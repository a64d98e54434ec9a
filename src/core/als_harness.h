#ifndef HATEN2_CORE_ALS_HARNESS_H_
#define HATEN2_CORE_ALS_HARNESS_H_

#include <functional>
#include <vector>

#include "core/contract.h"
#include "mapreduce/engine.h"
#include "mapreduce/stats.h"
#include "util/status.h"

namespace haten2 {

/// \brief What one ALS (outer) iteration reports back to the harness: the
/// model-quality numbers for the trace, and the scalar the convergence test
/// compares across iterations. A body that fails mid-iteration leaves the
/// fields it never reached unset — exactly what the trace should record.
struct AlsIterationOutcome {
  bool has_fit = false;
  double fit = 0.0;
  bool has_core_norm = false;
  double core_norm = 0.0;
  /// PARAFAC λ after the iteration (left empty by Tucker bodies).
  std::vector<double> lambda;

  /// Sketched-Tucker sweep annotations (core/sketched_tucker.cc; left unset
  /// by every other driver). sketch_seconds is the driver-side time spent
  /// building the projected factors and running the randomized range
  /// finder; sketch_dims is the sketch width s (0 on polish sweeps);
  /// sketch_polish marks the exact-polish sweeps appended at the end.
  bool has_sketch = false;
  double sketch_seconds = 0.0;
  int64_t sketch_dims = 0;
  bool sketch_polish = false;

  /// Convergence metric for this iteration (fit for PARAFAC, ||G|| for
  /// Tucker). When unset the harness skips the convergence test and the
  /// loop runs to max_iterations — matching drivers whose metric is
  /// optional (PARAFAC with compute_fit off).
  bool has_metric = false;
  double metric = 0.0;
};

/// \brief The outer-iteration loop shared by every decomposition driver:
/// runs the per-iteration body up to max_iterations times, captures one
/// IterationStats per iteration into the trace, and stops when the metric
/// converges.
///
/// The harness owns the two pieces the drivers used to hand-roll:
///
///   - **Job and plan attribution by id.** Before each iteration it takes
///     the engine's NextJobId() and NextPlanId() watermarks and afterwards
///     snapshots PipelineSince(job watermark, plan watermark) — jobs and
///     plans belong to the iteration whose id range they fall in, which
///     stays correct when a PlanScheduler completes jobs out of submission
///     order and keeps plans that run no engine job (in-core, sketch).
///     (The legacy drivers sliced pipeline().jobs by position, which only
///     works for serial execution.)
///   - **Convergence gating.** The test fires only from the second metric
///     on (`prev >= 0` gate, so e.g. a negative PARAFAC fit never
///     converges), comparing |metric − prev| against
///     tolerance × tolerance_scale, strictly or inclusively per
///     converge_on_equal. These reproduce the legacy drivers' semantics
///     bit-for-bit; do not "simplify" them.
///
/// A failed iteration is traced with the jobs that ran before the failure
/// (the paper's o.o.m. post-mortems keep their numbers), then its status is
/// returned.
///
/// The harness also owns the per-decomposition ContractCache: bodies pass
/// cache() to MultiModeContract for contractions of the iteration-invariant
/// input tensor (and nullptr for tensors rebuilt each iteration, like the
/// EM residual).
class AlsHarness {
 public:
  struct Options {
    int max_iterations = 20;
    double tolerance = 1e-6;
    /// The metric delta is compared against tolerance * tolerance_scale
    /// (Tucker scales by ||X||; everyone else leaves it 1).
    double tolerance_scale = 1.0;
    /// false: converge when |Δ| <  bound (PARAFAC-style strict test);
    /// true:  converge when |Δ| <= bound (Tucker's inclusive test).
    bool converge_on_equal = false;
    /// Optional per-iteration trace sink (Haten2Options::trace). Not owned.
    DecompositionTrace* trace = nullptr;

    /// Resume (checkpoint restart): the loop runs iterations
    /// [start_iteration + 1, max_iterations], so a resumed run and an
    /// uninterrupted one number their iterations — and their trace entries
    /// and history appends — identically. 0 = a fresh run.
    int start_iteration = 0;
    /// Restored convergence state: the metric recorded by the checkpoint
    /// (the harness's prev-metric at checkpoint time). With
    /// has_resume_metric false the test starts cold, exactly like a fresh
    /// run. Restoring it makes the first resumed iteration's convergence
    /// test compare against the pre-interruption metric — bit-identical to
    /// never having stopped.
    bool has_resume_metric = false;
    double resume_metric = 0.0;

    /// Periodic checkpointing: after every `checkpoint_every`-th completed
    /// iteration (and only when the iteration did not converge — a
    /// converged run returns its final model, there is nothing left to
    /// protect), the harness calls `checkpoint_fn(iteration, prev_metric)`
    /// where prev_metric is the convergence state a resume must restore.
    /// A checkpoint failure fails the run: the caller asked for
    /// durability, silently losing it would defeat the point. 0 disables.
    int checkpoint_every = 0;
    std::function<Status(int iteration, double prev_metric)> checkpoint_fn;

    /// Optional caller-owned ContractCache (Haten2Options::contract_cache).
    /// When set, cache() returns it instead of the harness-private cache,
    /// so derived forms of the input tensor survive across decompositions —
    /// the incremental-refit path keeps one cache alive across epochs and
    /// patches it per delta instead of rebuilding layouts from scratch.
    /// Not owned; must outlive the harness.
    ContractCache* external_cache = nullptr;
  };

  /// The iteration body: runs one full ALS sweep (iteration numbers start
  /// at 1), fills `outcome`, returns the first failure.
  using IterationBody =
      std::function<Status(int iteration, AlsIterationOutcome* outcome)>;

  AlsHarness(Engine* engine, Options options)
      : engine_(engine), options_(options) {}

  AlsHarness(const AlsHarness&) = delete;
  AlsHarness& operator=(const AlsHarness&) = delete;

  /// Runs the loop. Returns OK when it converged or exhausted
  /// max_iterations, otherwise the first iteration failure.
  Status Run(const IterationBody& body);

  /// Input-scan cache for the decomposition's invariant tensor: the
  /// caller-provided Options::external_cache when set, else a private
  /// per-decomposition cache.
  ContractCache* cache() {
    return options_.external_cache != nullptr ? options_.external_cache
                                              : &cache_;
  }

 private:
  Engine* engine_;
  Options options_;
  ContractCache cache_;
};

}  // namespace haten2

#endif  // HATEN2_CORE_ALS_HARNESS_H_
