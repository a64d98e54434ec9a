#ifndef HATEN2_CORE_INCREMENTAL_REFIT_H_
#define HATEN2_CORE_INCREMENTAL_REFIT_H_

#include <cstdint>
#include <string>
#include <utility>

#include "core/contract.h"
#include "core/parafac.h"
#include "mapreduce/engine.h"
#include "tensor/models.h"
#include "tensor/sparse_tensor.h"
#include "util/result.h"

namespace haten2 {

/// Cumulative cost accounting of an ingest session, serialized into the
/// stats export's `refit` object (haten2-stats-v12).
struct RefitCounters {
  int64_t epochs = 0;        ///< RefitWithDelta calls completed
  int64_t delta_nnz = 0;     ///< stored delta entries merged, summed
  double merge_seconds = 0.0;
  double refit_seconds = 0.0;
  int64_t iterations = 0;    ///< ALS iterations across all refits
  double last_fit = 0.0;     ///< fit of the most recent refit (when computed)
};

/// How the session refits after each epoch merge.
struct IncrementalRefitOptions {
  /// ALS configuration for every refit. The session overrides
  /// `initial_kruskal` (warm start) and `contract_cache` per refit;
  /// checkpoint/resume_from apply to each refit individually and are
  /// normally left unset here.
  Haten2Options als;
  int64_t rank = 10;
};

/// \brief One continuously-growing decomposition: owns the merged tensor,
/// the persistent ContractCache, and the current model; each epoch delta is
/// merged in, the cache patched in its dirty slices, and the model refit
/// warm-started from the previous factors.
///
/// The bit-for-bit contract: a refit over the merged tensor with a patched
/// cache runs the exact same kernels over the exact same layouts as a refit
/// over the merged tensor with a fresh cache (PatchCsfLayout output is
/// array-identical to a fresh build), so patching changes only *cost*: the
/// factors equal those of Haten2ParafacAls on tensor() with a fresh cache,
/// warm-started from the pre-epoch model. The determinism tests pin this.
class IncrementalRefitSession {
 public:
  /// Takes ownership of the base tensor (canonicalized if needed).
  IncrementalRefitSession(Engine* engine, SparseTensor base,
                          IncrementalRefitOptions options);

  /// Warm-starts the next refit from `model` (e.g. the base decomposition,
  /// or a checkpointed one). The model must match the tensor's shape and
  /// options.rank; mismatches surface as driver errors on the next refit.
  void WarmStartFromModel(KruskalModel model);

  /// Warm-starts from the newest loadable checkpoint under `directory`
  /// (core/checkpoint.h discovery rules, torn checkpoints skipped). The
  /// checkpoint must carry a kruskal model.
  Status WarmStartFromCheckpointDir(const std::string& directory);

  /// Fits the current tensor from scratch or from the warm start — the
  /// session's bootstrap — and stores the model. Does not count as an epoch.
  Status FitBase();

  /// Ingest one epoch: merges `delta` into the tensor, patches the cache's
  /// dirty slices, refits warm-started from the current model, and
  /// replaces it.
  Status RefitWithDelta(const SparseTensor& delta);

  const SparseTensor& tensor() const { return tensor_; }
  bool has_model() const { return has_model_; }
  const KruskalModel& model() const { return model_; }
  const RefitCounters& counters() const { return counters_; }
  const ContractCache& cache() const { return cache_; }
  const IncrementalRefitOptions& options() const { return options_; }

 private:
  Status Refit();

  Engine* engine_;
  SparseTensor tensor_;
  IncrementalRefitOptions options_;
  ContractCache cache_;
  KruskalModel model_;
  bool has_model_ = false;
  RefitCounters counters_;
};

}  // namespace haten2

#endif  // HATEN2_CORE_INCREMENTAL_REFIT_H_
