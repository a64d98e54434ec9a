#ifndef HATEN2_CORE_CHECKPOINT_H_
#define HATEN2_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/variant.h"
#include "tensor/models.h"
#include "tensor/sparse_tensor.h"
#include "util/result.h"

namespace haten2 {

/// \brief Durable ALS-iteration checkpoints (fault tolerance).
///
/// A long decomposition that dies between iterations — process kill, o.o.m.,
/// an aborted engine job — loses only the iterations since the last
/// checkpoint, not the whole run. A checkpoint is one directory
///
///   <directory>/iter_<NNNNNN>/
///     MANIFEST            versioned text manifest (see below)
///     model.mode<k>.txt   factor matrices      (model_io.h text formats,
///     model.lambda.txt    PARAFAC weights       %.17g — doubles round-trip
///     model.core.txt      Tucker core           bit-exactly)
///
/// holding *everything* the ALS loop needs to continue the exact iterate
/// sequence: the factor matrices (plus λ or the core), the iteration
/// counter, the fit / core-norm histories, the harness's convergence state
/// (the metric the next iteration's convergence test compares against), and
/// a fingerprint of the run configuration (method, variant, seed,
/// tolerance, rank/core dims, tensor shape and nnz) so a checkpoint cannot
/// silently resume a *different* run.
///
/// **Atomicity.** A checkpoint is written into a `.tmp` staging directory
/// and committed with one std::filesystem::rename — atomic on POSIX — so a
/// crash mid-write leaves either the previous checkpoint set or the new one,
/// never a half-written directory a resume could load. Readers ignore
/// staging directories. The manifest additionally ends with an `end` marker
/// line, so a truncated manifest (torn copy, partial download) is rejected
/// with a clear Status instead of resuming from garbage.
///
/// **Retention.** After each commit the writer prunes the oldest checkpoints
/// beyond `keep_last`, bounding disk use on long runs while always keeping
/// the newest K as fallbacks.

/// \brief Where and how often to checkpoint. Passed to the drivers via
/// Haten2Options::checkpoint (not owned); AlsHarness writes the
/// checkpoints.
struct CheckpointOptions {
  /// Directory the iter_<N> checkpoint directories live in; created on the
  /// first write if absent.
  std::string directory;
  /// Checkpoint after every N-th completed ALS iteration (N >= 1).
  int every_n_iterations = 5;
  /// How many committed checkpoints to retain (>= 1); older ones are
  /// removed after each successful commit.
  int keep_last = 2;
};

/// \brief The run state recorded alongside the model. Field order matches
/// the on-disk manifest.
struct CheckpointManifest {
  /// Driver family: "parafac", "parafac-nn", "tucker", "tucker-nn",
  /// "sketched-tucker", "parafac-em" (missing values).
  std::string method;
  /// "kruskal" or "tucker" — which model files the checkpoint carries.
  std::string model_kind;
  /// CheckpointFingerprint() of the run configuration. Resume refuses a
  /// checkpoint whose fingerprint does not match the current run.
  uint64_t fingerprint = 0;
  /// The last completed ALS iteration (1-based); resume continues at
  /// iteration + 1.
  int iteration = 0;
  /// The AlsHarness convergence state at checkpoint time: the metric the
  /// next iteration's convergence delta is compared against (-1 when no
  /// metric has been recorded yet — the harness's initial state).
  double metric = -1.0;
  /// Per-iteration fit history up to `iteration` (empty when the driver
  /// does not compute fits).
  std::vector<double> fit_history;
  /// Per-iteration ||G|| history (Tucker-family drivers; empty otherwise).
  std::vector<double> core_norm_history;
};

/// \brief A checkpoint read back from disk: the manifest plus the model of
/// manifest.model_kind (the other member is default-constructed).
struct LoadedCheckpoint {
  CheckpointManifest manifest;
  KruskalModel kruskal;
  TuckerModel tucker;
};

/// \brief Writes atomic, versioned checkpoints under options.directory and
/// enforces keep-last-K retention. One writer per decomposition run.
class CheckpointWriter {
 public:
  explicit CheckpointWriter(CheckpointOptions options)
      : options_(std::move(options)) {}

  /// Saves one checkpoint: stage under a `.tmp` name, atomically rename to
  /// iter_<manifest.iteration>, then prune beyond keep_last. Exactly one of
  /// `kruskal` / `tucker` must be non-null and must match
  /// manifest.model_kind.
  Status Write(const CheckpointManifest& manifest,
               const KruskalModel* kruskal, const TuckerModel* tucker);

  const CheckpointOptions& options() const { return options_; }

 private:
  CheckpointOptions options_;
};

/// Subdirectory name of the checkpoint for `iteration` ("iter_000042").
std::string CheckpointDirName(int iteration);

/// Committed checkpoint directories under `directory`, sorted by iteration
/// ascending. Staging (`.tmp`) and unrelated entries are skipped. An empty
/// or missing directory yields an empty list.
Result<std::vector<std::string>> ListCheckpoints(const std::string& directory);

/// Parses `<checkpoint_dir>/MANIFEST`. A missing file is NotFound; a
/// truncated or malformed manifest is InvalidArgument naming the defect.
Result<CheckpointManifest> ReadCheckpointManifest(
    const std::string& checkpoint_dir);

/// Loads one committed checkpoint directory (manifest + model files).
Result<LoadedCheckpoint> LoadCheckpoint(const std::string& checkpoint_dir);

/// Loads the newest *loadable* committed checkpoint under `directory`:
/// candidates are tried newest-first and ones that fail to load (torn
/// manifest without the `end` marker, half-written model files, orphaned
/// `*.tmp` debris that slipped past naming) are skipped with a warning —
/// an older committed checkpoint beats starting over. NotFound when no
/// candidate exists; the newest candidate's load error when all are broken.
Result<LoadedCheckpoint> LoadLatestCheckpoint(const std::string& directory);

/// The resume gate AlsHarness::Start applies before restoring anything: the
/// checkpoint must carry the expected model kind and method and the exact
/// fingerprint of the current run; anything else is kFailedPrecondition
/// with a message naming the mismatch.
Status ValidateCheckpointForResume(const CheckpointManifest& manifest,
                                   const std::string& method,
                                   const std::string& model_kind,
                                   uint64_t fingerprint);

/// \brief Fingerprint of everything that must match for a checkpoint to
/// continue the same iterate sequence: method, variant, seed, tolerance,
/// rank / core dims, and the input tensor's shape and nnz. Deliberately
/// excludes max_iterations (extending a finished run is legitimate) and
/// cluster/scheduling knobs (they never change the iterates).
uint64_t CheckpointFingerprint(const std::string& method, Variant variant,
                               uint64_t seed, double tolerance,
                               const std::vector<int64_t>& rank_or_core,
                               const SparseTensor& x);

}  // namespace haten2

#endif  // HATEN2_CORE_CHECKPOINT_H_
