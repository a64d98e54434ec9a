#ifndef HATEN2_CORE_ALS_HARNESS_H_
#define HATEN2_CORE_ALS_HARNESS_H_

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "core/contract.h"
#include "core/parafac.h"  // Haten2Options
#include "mapreduce/engine.h"
#include "mapreduce/stats.h"
#include "tensor/models.h"
#include "tensor/sparse_tensor.h"
#include "util/result.h"

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
  /// loop runs to max_iterations — the sketched-Tucker sweeps before the
  /// polish phase rely on this.
  bool has_metric = false;
  double metric = 0.0;
};

/// The convergence test's driver-family knobs (AlsHarness).
struct AlsConvergence {
  /// The metric delta is compared against tolerance * tolerance_scale
  /// (Tucker scales by ||X||; everyone else leaves it 1).
  double tolerance_scale = 1.0;
  /// false: converge when |Δ| <  bound (PARAFAC-style strict test);
  /// true:  converge when |Δ| <= bound (Tucker's inclusive test).
  bool converge_on_equal = false;
};

/// How AlsHarness::Start began the model.
enum class AlsStart {
  /// No checkpoint and no warm start: the driver draws the model itself.
  kFresh,
  /// Copied from Haten2Options::initial_kruskal / initial_tucker.
  kWarm,
  /// Restored from Haten2Options::resume_from, mid-run.
  kResumed,
};

/// Entry checks shared by every driver: a non-null engine and a nonempty
/// tensor of order 2..kMaxMrOrder.
Status ValidateAlsInput(const Engine* engine, const SparseTensor& x);

/// Tucker-family core sizes: one per mode, each in [1, x.dim(m)].
Status ValidateCoreDims(const SparseTensor& x,
                        const std::vector<int64_t>& core_dims);

/// \brief The run skeleton shared by every decomposition driver: it starts
/// the model (checkpoint resume, warm start, or neither), runs the
/// per-iteration body up to max_iterations times, captures one
/// IterationStats per iteration into the trace, stops when the metric
/// converges, and writes the periodic checkpoints. A driver keeps only its
/// input rules, its fresh random start and its sweep.
///
/// The harness reads max_iterations, tolerance, trace, contract_cache,
/// checkpoint, resume_from and the warm start of its model kind
/// (initial_kruskal or initial_tucker) from the driver's Haten2Options.
///
///   - **Start.** A resume passes ValidateCheckpointForResume (method,
///     model kind, fingerprint), then the shape check, then restores the
///     factors, λ or core, history, iteration counter and convergence
///     state verbatim; the loop continues at the checkpoint's iteration + 1,
///     so a resumed run numbers its iterations, trace entries and history
///     appends exactly like an uninterrupted one. A warm start passes the
///     shape check and copies the factors and λ or core (histories and
///     counter start empty). Otherwise the model is left for the driver.
///   - **Job and plan attribution by id.** Before each iteration it takes
///     the engine's NextJobId() and NextPlanId() watermarks and afterwards
///     snapshots PipelineSince(job watermark, plan watermark) — jobs and
///     plans belong to the iteration whose id range they fall in, which
///     stays correct when a PlanScheduler completes jobs out of submission
///     order and keeps plans that run no engine job (in-core, sketch).
///   - **Convergence gating.** The test fires only from the second metric
///     on (`prev >= 0` gate, so e.g. a negative PARAFAC fit never
///     converges), comparing |metric − prev| against
///     tolerance × tolerance_scale, strictly or inclusively per
///     converge_on_equal. These reproduce the legacy drivers' semantics
///     bit-for-bit; do not "simplify" them.
///   - **Checkpoints.** After every checkpoint->every_n_iterations-th
///     completed iteration that neither converged nor was the last, it
///     writes the model with a manifest holding the method, model kind,
///     fingerprint, iteration, convergence state and the model's fit
///     (Kruskal) or ||G|| (Tucker) history. A checkpoint failure fails the
///     run: the caller asked for durability.
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
  /// The iteration body: runs one full ALS sweep (iteration numbers start
  /// at 1), fills `outcome`, returns the first failure. The harness sets
  /// the model's iteration counter after each successful body.
  using IterationBody =
      std::function<Status(int iteration, AlsIterationOutcome* outcome)>;

  /// `method` and `fingerprint` are what the checkpoints record and what a
  /// resume must match (CheckpointManifest). The model is not owned and
  /// must outlive the harness.
  AlsHarness(Engine* engine, const Haten2Options& options, std::string method,
             uint64_t fingerprint, KruskalModel* model,
             AlsConvergence convergence = {})
      : AlsHarness(engine, options, std::move(method), fingerprint, model,
                   nullptr, convergence) {}
  AlsHarness(Engine* engine, const Haten2Options& options, std::string method,
             uint64_t fingerprint, TuckerModel* model,
             AlsConvergence convergence = {})
      : AlsHarness(engine, options, std::move(method), fingerprint, nullptr,
                   model, convergence) {}

  AlsHarness(const AlsHarness&) = delete;
  AlsHarness& operator=(const AlsHarness&) = delete;

  /// Starts the model. `columns[m]` is the column count factor m must have:
  /// the rank for every mode of a Kruskal model, core_dims for a Tucker
  /// model. The shape check, shared by resume and warm start, requires one
  /// factor per mode, factor m x.dim(m) × columns[m], λ with columns[0]
  /// entries, and a core (when present) of dims `columns`.
  Result<AlsStart> Start(const SparseTensor& x,
                         const std::vector<int64_t>& columns);

  /// Runs the loop. Returns OK when it converged or exhausted
  /// max_iterations, otherwise the first iteration or checkpoint failure.
  Status Run(const IterationBody& body);

  /// The convergence state: the last metric the test recorded (restored by
  /// a resume), or -1 before any.
  double metric() const { return prev_metric_; }

  /// Input-scan cache for the decomposition's invariant tensor:
  /// Haten2Options::contract_cache when set (it outlives the
  /// decomposition, so incremental refit can patch it per delta), else a
  /// private per-decomposition cache.
  ContractCache* cache() {
    return options_.contract_cache != nullptr ? options_.contract_cache
                                              : &cache_;
  }

 private:
  AlsHarness(Engine* engine, const Haten2Options& options, std::string method,
             uint64_t fingerprint, KruskalModel* kruskal, TuckerModel* tucker,
             AlsConvergence convergence);

  Status WriteCheckpoint(int iteration);

  Engine* engine_;
  Haten2Options options_;
  AlsConvergence convergence_;
  std::string method_;
  uint64_t fingerprint_;
  /// Exactly one is set: the model kind the driver iterates.
  KruskalModel* kruskal_;
  TuckerModel* tucker_;
  std::optional<CheckpointWriter> checkpoint_writer_;
  int start_iteration_ = 0;
  /// -1.0 is the legacy cold-start sentinel; a resume restores the exact
  /// metric recorded at checkpoint time, so the first resumed convergence
  /// test is bit-identical to the uninterrupted one.
  double prev_metric_ = -1.0;
  ContractCache cache_;
};

}  // namespace haten2

#endif  // HATEN2_CORE_ALS_HARNESS_H_
