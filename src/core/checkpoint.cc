#include "core/checkpoint.h"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "mapreduce/hash.h"
#include "tensor/model_io.h"
#include "util/json_writer.h"  // WriteTextFile
#include "util/string_util.h"

namespace haten2 {

namespace {

namespace fs = std::filesystem;

constexpr const char* kManifestMagic = "haten2-checkpoint-v1";
constexpr const char* kManifestName = "MANIFEST";
constexpr const char* kModelPrefix = "model";

std::string FormatHistory(const char* key, const std::vector<double>& h) {
  std::string line = key;
  for (double v : h) line += StrFormat(" %.17g", v);
  line += "\n";
  return line;
}

Status ParseHistory(std::istringstream* rest, std::vector<double>* out) {
  std::string token;
  while (*rest >> token) {
    char* end = nullptr;
    double v = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0') {
      return Status::InvalidArgument("non-numeric history entry: " + token);
    }
    out->push_back(v);
  }
  return Status::OK();
}

/// iter_<NNNNNN> → iteration, or -1 for names that are not checkpoints.
/// `*.tmp` names are rejected explicitly (not just by the digits rule):
/// they are staging directories mid-write or orphans of a crash, never
/// committed checkpoints, regardless of what tooling dropped them there.
/// So is a number above INT_MAX, which no run's iteration counter reaches.
int ParseCheckpointDirName(const std::string& name) {
  constexpr std::string_view kPrefix = "iter_";
  constexpr std::string_view kTmpSuffix = ".tmp";
  if (name.size() >= kTmpSuffix.size() &&
      name.compare(name.size() - kTmpSuffix.size(), kTmpSuffix.size(),
                   kTmpSuffix) == 0) {
    return -1;
  }
  if (name.size() <= kPrefix.size() ||
      name.compare(0, kPrefix.size(), kPrefix) != 0) {
    return -1;
  }
  int iter = 0;
  for (size_t i = kPrefix.size(); i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return -1;
    const int digit = name[i] - '0';
    if (iter > (INT_MAX - digit) / 10) return -1;
    iter = iter * 10 + digit;
  }
  return iter;
}

}  // namespace

std::string CheckpointDirName(int iteration) {
  return StrFormat("iter_%06d", iteration);
}

uint64_t CheckpointFingerprint(const std::string& method, Variant variant,
                               uint64_t seed, double tolerance,
                               const std::vector<int64_t>& rank_or_core,
                               const SparseTensor& x) {
  uint64_t h = 0x48615465ull;  // "HaTe"
  auto mix = [&h](uint64_t v) { h = Mix64(h ^ Mix64(v)); };
  for (char c : method) mix(static_cast<uint64_t>(c));
  mix(static_cast<uint64_t>(variant));
  mix(seed);
  uint64_t tol_bits;
  static_assert(sizeof(tol_bits) == sizeof(tolerance));
  std::memcpy(&tol_bits, &tolerance, sizeof(tol_bits));
  mix(tol_bits);
  for (int64_t r : rank_or_core) mix(static_cast<uint64_t>(r));
  mix(static_cast<uint64_t>(x.order()));
  for (int m = 0; m < x.order(); ++m) mix(static_cast<uint64_t>(x.dim(m)));
  mix(static_cast<uint64_t>(x.nnz()));
  return h;
}

Status CheckpointWriter::Write(const CheckpointManifest& manifest,
                               const KruskalModel* kruskal,
                               const TuckerModel* tucker) {
  if (options_.directory.empty()) {
    return Status::InvalidArgument("checkpoint directory must be set");
  }
  if (options_.every_n_iterations < 1 || options_.keep_last < 1) {
    return Status::InvalidArgument(
        "checkpoint every_n_iterations and keep_last must be >= 1");
  }
  if ((kruskal != nullptr) == (tucker != nullptr)) {
    return Status::InvalidArgument(
        "exactly one of the Kruskal / Tucker models must be provided");
  }
  if ((kruskal != nullptr && manifest.model_kind != "kruskal") ||
      (tucker != nullptr && manifest.model_kind != "tucker")) {
    return Status::InvalidArgument(
        "manifest model kind does not match the provided model");
  }
  if (manifest.iteration < 1) {
    return Status::InvalidArgument("checkpoint iteration must be >= 1");
  }

  std::error_code ec;
  fs::create_directories(options_.directory, ec);
  if (ec) {
    return Status::IOError("creating checkpoint directory " +
                           options_.directory + ": " + ec.message());
  }

  const fs::path root(options_.directory);
  const fs::path final_dir = root / CheckpointDirName(manifest.iteration);
  const fs::path staging =
      root / ("." + CheckpointDirName(manifest.iteration) + ".tmp");

  // A leftover staging directory from a previous crash is dead weight.
  fs::remove_all(staging, ec);
  fs::create_directories(staging, ec);
  if (ec) {
    return Status::IOError("creating checkpoint staging directory: " +
                           ec.message());
  }

  const std::string prefix = (staging / kModelPrefix).string();
  Status model_status =
      kruskal != nullptr ? SaveKruskalModel(*kruskal, prefix)
                         : SaveTuckerModel(*tucker, prefix);
  if (!model_status.ok()) {
    fs::remove_all(staging, ec);
    return model_status;
  }

  std::string text = kManifestMagic;
  text += "\n";
  text += "method " + manifest.method + "\n";
  text += "model " + manifest.model_kind + "\n";
  text += StrFormat("fingerprint %llu\n",
                    (unsigned long long)manifest.fingerprint);
  text += StrFormat("iteration %d\n", manifest.iteration);
  text += StrFormat("metric %.17g\n", manifest.metric);
  text += FormatHistory("fit_history", manifest.fit_history);
  text += FormatHistory("core_norm_history", manifest.core_norm_history);
  text += "end\n";
  Status manifest_status =
      WriteTextFile((staging / kManifestName).string(), text);
  if (!manifest_status.ok()) {
    fs::remove_all(staging, ec);
    return manifest_status;
  }

  // Commit point: one atomic rename. Replace an existing checkpoint of the
  // same iteration (a re-run over a stale directory) rather than failing.
  fs::remove_all(final_dir, ec);
  fs::rename(staging, final_dir, ec);
  if (ec) {
    std::error_code cleanup;
    fs::remove_all(staging, cleanup);
    return Status::IOError("committing checkpoint " + final_dir.string() +
                           ": " + ec.message());
  }

  // Retention: prune committed checkpoints beyond keep_last (best effort —
  // a prune failure must not fail the run; the commit already happened).
  Result<std::vector<std::string>> existing =
      ListCheckpoints(options_.directory);
  if (existing.ok() &&
      existing->size() > static_cast<size_t>(options_.keep_last)) {
    const size_t excess = existing->size() -
                          static_cast<size_t>(options_.keep_last);
    for (size_t i = 0; i < excess; ++i) {
      fs::remove_all((*existing)[i], ec);
    }
  }
  return Status::OK();
}

Result<std::vector<std::string>> ListCheckpoints(
    const std::string& directory) {
  std::vector<std::pair<int, std::string>> found;
  std::error_code ec;
  fs::directory_iterator it(directory, ec);
  if (ec) return std::vector<std::string>{};  // missing dir = no checkpoints
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_directory(ec)) continue;
    int iter = ParseCheckpointDirName(entry.path().filename().string());
    if (iter >= 0) found.emplace_back(iter, entry.path().string());
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> out;
  out.reserve(found.size());
  for (auto& [iter, path] : found) out.push_back(std::move(path));
  return out;
}

Result<CheckpointManifest> ReadCheckpointManifest(
    const std::string& checkpoint_dir) {
  const std::string path =
      (fs::path(checkpoint_dir) / kManifestName).string();
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("checkpoint manifest not found: " + path);
  }
  auto corrupt = [&path](const std::string& why) {
    return Status::InvalidArgument("corrupt checkpoint manifest " + path +
                                   ": " + why);
  };

  std::string line;
  if (!std::getline(in, line) || line != kManifestMagic) {
    return corrupt("missing '" + std::string(kManifestMagic) +
                   "' header line");
  }
  CheckpointManifest manifest;
  bool saw_end = false;
  bool saw_iteration = false;
  while (std::getline(in, line)) {
    if (line == "end") {
      saw_end = true;
      break;
    }
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "method") {
      fields >> manifest.method;
    } else if (key == "model") {
      fields >> manifest.model_kind;
    } else if (key == "fingerprint") {
      unsigned long long fp = 0;
      if (!(fields >> fp)) return corrupt("unreadable fingerprint");
      manifest.fingerprint = fp;
    } else if (key == "iteration") {
      if (!(fields >> manifest.iteration) || manifest.iteration < 1) {
        return corrupt("unreadable iteration counter");
      }
      saw_iteration = true;
    } else if (key == "metric") {
      if (!(fields >> manifest.metric)) return corrupt("unreadable metric");
    } else if (key == "fit_history") {
      HATEN2_RETURN_IF_ERROR(ParseHistory(&fields, &manifest.fit_history));
    } else if (key == "core_norm_history") {
      HATEN2_RETURN_IF_ERROR(
          ParseHistory(&fields, &manifest.core_norm_history));
    } else {
      return corrupt("unknown field '" + key + "'");
    }
  }
  if (!saw_end) {
    return corrupt("truncated (missing 'end' marker — the checkpoint was "
                   "not committed atomically)");
  }
  if (manifest.method.empty() || !saw_iteration) {
    return corrupt("missing required fields (method, iteration)");
  }
  if (manifest.model_kind != "kruskal" && manifest.model_kind != "tucker") {
    return corrupt("unknown model kind '" + manifest.model_kind + "'");
  }
  return manifest;
}

Result<LoadedCheckpoint> LoadCheckpoint(const std::string& checkpoint_dir) {
  LoadedCheckpoint loaded;
  HATEN2_ASSIGN_OR_RETURN(loaded.manifest,
                          ReadCheckpointManifest(checkpoint_dir));
  const std::string prefix =
      (fs::path(checkpoint_dir) / kModelPrefix).string();
  if (loaded.manifest.model_kind == "kruskal") {
    HATEN2_ASSIGN_OR_RETURN(loaded.kruskal,
                            LoadKruskalModelAutoOrder(prefix));
  } else {
    HATEN2_ASSIGN_OR_RETURN(loaded.tucker, LoadTuckerModelAutoOrder(prefix));
  }
  return loaded;
}

Status ValidateCheckpointForResume(const CheckpointManifest& manifest,
                                   const std::string& method,
                                   const std::string& model_kind,
                                   uint64_t fingerprint) {
  if (manifest.model_kind != model_kind) {
    return Status::FailedPrecondition(
        "checkpoint carries a " + manifest.model_kind +
        " model, this driver needs " + model_kind);
  }
  if (manifest.method != method) {
    return Status::FailedPrecondition(
        "checkpoint was written by method '" + manifest.method +
        "', refusing to resume method '" + method + "'");
  }
  if (manifest.fingerprint != fingerprint) {
    return Status::FailedPrecondition(StrFormat(
        "checkpoint fingerprint %llu does not match this run's %llu — the "
        "method, variant, seed, tolerance, rank/core dims, or input tensor "
        "differ from the checkpointed run",
        (unsigned long long)manifest.fingerprint,
        (unsigned long long)fingerprint));
  }
  return Status::OK();
}

Result<LoadedCheckpoint> LoadLatestCheckpoint(const std::string& directory) {
  HATEN2_ASSIGN_OR_RETURN(std::vector<std::string> checkpoints,
                          ListCheckpoints(directory));
  if (checkpoints.empty()) {
    return Status::NotFound("no committed checkpoints under '" + directory +
                            "'");
  }
  // Walk newest → oldest, skipping checkpoints that fail to load: a torn
  // manifest (missing 'end' marker) or half-written model files mean that
  // *that* checkpoint is dead, not that resume is impossible — an older
  // committed checkpoint is strictly better than starting over. Only when
  // every candidate is broken does the newest one's error surface.
  Status newest_error = Status::OK();
  for (auto it = checkpoints.rbegin(); it != checkpoints.rend(); ++it) {
    Result<LoadedCheckpoint> loaded = LoadCheckpoint(*it);
    if (loaded.ok()) return loaded;
    if (newest_error.ok()) newest_error = loaded.status();
    std::fprintf(stderr,
                 "haten2: skipping unloadable checkpoint %s: %s\n",
                 it->c_str(), loaded.status().message().c_str());
  }
  return newest_error;
}

}  // namespace haten2
