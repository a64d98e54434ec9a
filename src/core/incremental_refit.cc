#include "core/incremental_refit.h"

#include <chrono>

#include "core/checkpoint.h"
#include "tensor/delta_log.h"

namespace haten2 {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

IncrementalRefitSession::IncrementalRefitSession(
    Engine* engine, SparseTensor base, IncrementalRefitOptions options)
    : engine_(engine), tensor_(std::move(base)), options_(std::move(options)) {
  if (!tensor_.canonical()) tensor_.Canonicalize();
}

void IncrementalRefitSession::WarmStartFromModel(KruskalModel model) {
  model_ = std::move(model);
  has_model_ = true;
}

Status IncrementalRefitSession::WarmStartFromCheckpointDir(
    const std::string& directory) {
  HATEN2_ASSIGN_OR_RETURN(LoadedCheckpoint loaded,
                          LoadLatestCheckpoint(directory));
  if (loaded.manifest.model_kind != "kruskal") {
    return Status::FailedPrecondition(
        "incremental refit warm-starts need a kruskal checkpoint, found " +
        loaded.manifest.model_kind);
  }
  // Deliberately no fingerprint validation: the session's tensor has grown
  // past the checkpointed one, so this is a warm start (fresh run from the
  // checkpointed factors), not a strict resume.
  WarmStartFromModel(std::move(loaded.kruskal));
  return Status::OK();
}

Status IncrementalRefitSession::Refit() {
  Haten2Options als = options_.als;
  als.contract_cache = &cache_;
  if (has_model_) als.initial_kruskal = &model_;
  // Iteration/fit accounting needs a trace; fall back to a local one when
  // the caller did not ask for observability.
  DecompositionTrace local_trace;
  DecompositionTrace* trace =
      als.trace != nullptr ? als.trace : &local_trace;
  const size_t trace_start = trace->iterations.size();
  als.trace = trace;

  const auto start = std::chrono::steady_clock::now();
  HATEN2_ASSIGN_OR_RETURN(
      KruskalModel refit,
      Haten2ParafacAls(engine_, tensor_, options_.rank, als));
  counters_.refit_seconds += SecondsSince(start);
  counters_.iterations +=
      static_cast<int64_t>(trace->iterations.size() - trace_start);
  for (size_t i = trace->iterations.size(); i > trace_start; --i) {
    const IterationStats& it = trace->iterations[i - 1];
    if (it.has_fit) {
      counters_.last_fit = it.fit;
      break;
    }
  }
  model_ = std::move(refit);
  has_model_ = true;
  return Status::OK();
}

Status IncrementalRefitSession::FitBase() { return Refit(); }

Status IncrementalRefitSession::RefitWithDelta(const SparseTensor& delta) {
  const auto start = std::chrono::steady_clock::now();
  HATEN2_RETURN_IF_ERROR(MergeDelta(&tensor_, delta));
  // Patch the persistent cache relative to the pre-merge tensor it keys:
  // only slices the delta touches are invalidated or rebuilt.
  HATEN2_RETURN_IF_ERROR(cache_.ApplyDelta(tensor_, delta));
  counters_.merge_seconds += SecondsSince(start);
  counters_.delta_nnz += delta.nnz();
  HATEN2_RETURN_IF_ERROR(Refit());
  ++counters_.epochs;
  return Status::OK();
}

}  // namespace haten2
