#ifndef HATEN2_SERVING_REFIT_CONTROLLER_H_
#define HATEN2_SERVING_REFIT_CONTROLLER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>

#include "core/incremental_refit.h"
#include "serving/model_registry.h"
#include "tensor/delta_log.h"
#include "tensor/sparse_tensor.h"
#include "util/result.h"

namespace haten2 {

/// \brief Closes the ingest → refit → serve loop: owns an
/// IncrementalRefitSession and publishes each refit model into a
/// ModelRegistry, with the merged tensor as its observed tensor (so top-k
/// queries exclude already-ingested cells), tracking how far serving lags
/// behind ingest.
///
/// The controller is the single writer of the session and the registry
/// entry it manages; queries read the registry concurrently (hot-swap
/// semantics, see ModelRegistry). Counters() may be called from any
/// thread — serving stats exports poll it while a refit is in flight.
class RefitController {
 public:
  struct Options {
    /// Registry name the refit models are installed under.
    std::string model_name = "live";
    /// Session configuration (ALS options, rank).
    IncrementalRefitOptions refit;
    /// When non-empty, Bootstrap() warm-starts from the newest loadable
    /// checkpoint under this directory (torn checkpoints skipped); NotFound
    /// (no checkpoint yet) falls back to a cold start.
    std::string warm_start_checkpoint_dir;
  };

  /// Staleness and throughput accounting for the refit loop, exported into
  /// the serving stats JSON (`refit` object) and, via the CLI mapping, the
  /// haten2-stats-v12 engine schema.
  struct Counters {
    int64_t epochs_sealed = 0;     ///< epochs the controller has seen sealed
    int64_t epochs_installed = 0;  ///< refits that reached the registry
    /// Model staleness right now: sealed epochs not yet serving. Nonzero
    /// while a refit is in flight or the loop has fallen behind ingest.
    int64_t epochs_behind = 0;
    int64_t max_epochs_behind = 0;  ///< worst staleness observed
    int64_t installed_version = 0;  ///< registry version now serving (0: none)
    /// Cumulative refit cost (merge/refit seconds, iterations, delta nnz)
    /// from the underlying session.
    RefitCounters refit;
  };

  /// Takes ownership of the base tensor. Nothing is fitted or installed
  /// until Bootstrap().
  RefitController(Engine* engine, ModelRegistry* registry, SparseTensor base,
                  Options options);

  /// Fits the base tensor (warm-started from the checkpoint directory when
  /// configured) and installs the model. Call once, before ProcessEpoch.
  Status Bootstrap();

  /// Ingests one sealed epoch: merge → refit → install. The epoch counts
  /// as sealed the moment this is called, so `epochs_behind` is visible to
  /// concurrent stats readers for the duration of the refit.
  Status ProcessEpoch(const SparseTensor& delta);

  /// Processes every sealed epoch of `log` the controller has not ingested
  /// yet, in order. Returns the number ingested. Epochs sealed into the
  /// log after this returns are picked up by the next call.
  Result<int64_t> CatchUp(const DeltaLog& log);

  Counters GetCounters() const;

  /// The underlying session (merged tensor, model, contract cache) — the
  /// controller stays the single writer; use from the refit thread only.
  const IncrementalRefitSession& session() const { return session_; }

  const Options& options() const { return options_; }

 private:
  Status InstallCurrent();

  ModelRegistry* registry_;
  Options options_;
  IncrementalRefitSession session_;
  int64_t next_log_epoch_ = 0;  // first log epoch not yet ingested

  mutable std::mutex mu_;  // guards the counter fields below
  int64_t epochs_sealed_ = 0;
  int64_t epochs_installed_ = 0;
  int64_t max_epochs_behind_ = 0;
  int64_t installed_version_ = 0;
};

}  // namespace haten2

#endif  // HATEN2_SERVING_REFIT_CONTROLLER_H_
