#include "serving/refit_controller.h"

#include <memory>

namespace haten2 {

RefitController::RefitController(Engine* engine, ModelRegistry* registry,
                                 SparseTensor base, Options options)
    : registry_(registry),
      options_(std::move(options)),
      session_(engine, std::move(base), options_.refit) {}

Status RefitController::Bootstrap() {
  if (!options_.warm_start_checkpoint_dir.empty()) {
    Status warm =
        session_.WarmStartFromCheckpointDir(options_.warm_start_checkpoint_dir);
    // No checkpoint yet is a normal first boot; anything else (torn files
    // all the way down, wrong model kind) the operator needs to see.
    if (!warm.ok() && warm.code() != StatusCode::kNotFound) return warm;
  }
  HATEN2_RETURN_IF_ERROR(session_.FitBase());
  return InstallCurrent();
}

Status RefitController::ProcessEpoch(const SparseTensor& delta) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++epochs_sealed_;
    int64_t behind = epochs_sealed_ - epochs_installed_;
    if (behind > max_epochs_behind_) max_epochs_behind_ = behind;
  }
  HATEN2_RETURN_IF_ERROR(session_.RefitWithDelta(delta));
  return InstallCurrent();
}

Result<int64_t> RefitController::CatchUp(const DeltaLog& log) {
  int64_t ingested = 0;
  while (next_log_epoch_ < log.num_epochs()) {
    HATEN2_RETURN_IF_ERROR(ProcessEpoch(log.epoch(next_log_epoch_)));
    ++next_log_epoch_;
    ++ingested;
  }
  return ingested;
}

Status RefitController::InstallCurrent() {
  if (!session_.has_model()) {
    return Status::FailedPrecondition(
        "refit controller has no fitted model to install");
  }
  HATEN2_ASSIGN_OR_RETURN(
      int64_t version,
      registry_->InstallKruskal(
          options_.model_name, session_.model(),
          std::make_shared<const SparseTensor>(session_.tensor())));
  std::lock_guard<std::mutex> lock(mu_);
  installed_version_ = version;
  // Bootstrap installs without a preceding sealed epoch; don't let the
  // installed count run ahead of the sealed count.
  if (epochs_installed_ < epochs_sealed_) ++epochs_installed_;
  return Status::OK();
}

RefitController::Counters RefitController::GetCounters() const {
  Counters c;
  {
    std::lock_guard<std::mutex> lock(mu_);
    c.epochs_sealed = epochs_sealed_;
    c.epochs_installed = epochs_installed_;
    c.epochs_behind = epochs_sealed_ - epochs_installed_;
    c.max_epochs_behind = max_epochs_behind_;
    c.installed_version = installed_version_;
  }
  c.refit = session_.counters();
  return c;
}

}  // namespace haten2
