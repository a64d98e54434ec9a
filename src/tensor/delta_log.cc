#include "tensor/delta_log.h"

#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "tensor/binary_codec.h"
#include "util/string_util.h"

namespace haten2 {

namespace {

constexpr char kMagic[8] = {'H', 'A', 'T', 'E', 'N', '2', 'D', '\0'};
constexpr uint32_t kVersion = 1;
constexpr int64_t kMaxReasonableNnz = int64_t{1} << 40;
constexpr int64_t kMaxReasonableEpochs = int64_t{1} << 32;

using internal::Checksum;
using internal::Get;
using internal::Put;

void PutEntries(std::string* out, const SparseTensor& t) {
  Put<int64_t>(out, t.nnz());
  for (int64_t e = 0; e < t.nnz(); ++e) {
    for (int m = 0; m < t.order(); ++m) Put<int64_t>(out, t.index(e, m));
    Put<double>(out, t.value(e));
  }
}

/// Reads one entry block from the in-memory body `in` of `body_bytes`
/// bytes. The claimed entry count is checked against the bytes left
/// before anything is reserved, so a forged count cannot drive the
/// allocation.
Status GetEntries(std::istream& in, size_t body_bytes, const std::string& path,
                  SparseTensor* t) {
  int64_t nnz = 0;
  if (!Get(in, &nnz) || nnz < 0 || nnz > kMaxReasonableNnz) {
    return Status::InvalidArgument(path + ": implausible delta nnz");
  }
  const size_t entry_bytes = static_cast<size_t>(t->order()) * 8 + 8;
  const size_t bytes_left = body_bytes - static_cast<size_t>(in.tellg());
  if (static_cast<size_t>(nnz) > bytes_left / entry_bytes) {
    return Status::InvalidArgument(path + ": truncated delta entries");
  }
  t->Reserve(nnz);
  std::vector<int64_t> idx(static_cast<size_t>(t->order()));
  for (int64_t e = 0; e < nnz; ++e) {
    for (int m = 0; m < t->order(); ++m) {
      if (!Get(in, &idx[static_cast<size_t>(m)])) {
        return Status::InvalidArgument(path + ": truncated delta entries");
      }
    }
    double value;
    if (!Get(in, &value)) {
      return Status::InvalidArgument(path + ": truncated delta entries");
    }
    HATEN2_RETURN_IF_ERROR(t->Append(idx.data(), t->order(), value));
  }
  return Status::OK();
}

}  // namespace

DeltaLog::DeltaLog(std::vector<int64_t> dims) : dims_(std::move(dims)) {
  open_ = SparseTensor::Create(dims_).value();
}

Result<DeltaLog> DeltaLog::Create(std::vector<int64_t> dims) {
  // Reuse SparseTensor's shape validation: a log is valid iff an empty
  // tensor of that shape is.
  HATEN2_RETURN_IF_ERROR(SparseTensor::Create(dims).status());
  return DeltaLog(std::move(dims));
}

Status DeltaLog::Append(const int64_t* idx, int idx_len, double value) {
  return open_.Append(idx, idx_len, value);
}

Status DeltaLog::Append(std::initializer_list<int64_t> idx, double value) {
  return open_.Append(idx, value);
}

Result<int64_t> DeltaLog::SealEpoch() {
  if (open_.nnz() == 0) {
    return Status::FailedPrecondition(
        "DeltaLog::SealEpoch: refusing to seal an empty epoch (nothing was "
        "appended)");
  }
  open_.Canonicalize();
  epochs_.push_back(std::move(open_));
  open_ = SparseTensor::Create(dims_).value();
  return static_cast<int64_t>(epochs_.size()) - 1;
}

int64_t DeltaLog::sealed_nnz() const {
  int64_t total = 0;
  for (const SparseTensor& e : epochs_) total += e.nnz();
  return total;
}

Result<SparseTensor> DeltaLog::MergedView(const SparseTensor& base,
                                          int64_t first_epoch) const {
  if (first_epoch < 0 || first_epoch > num_epochs()) {
    return Status::InvalidArgument(
        StrFormat("DeltaLog::MergedView: first_epoch %lld out of [0, %lld]",
                  static_cast<long long>(first_epoch),
                  static_cast<long long>(num_epochs())));
  }
  SparseTensor merged = base;
  for (int64_t i = first_epoch; i < num_epochs(); ++i) {
    HATEN2_RETURN_IF_ERROR(MergeDelta(&merged, epoch(i)));
  }
  merged.Canonicalize();
  return merged;
}

Status MergeDelta(SparseTensor* base, const SparseTensor& delta) {
  if (base == nullptr) {
    return Status::InvalidArgument("MergeDelta: base must not be null");
  }
  if (base->dims() != delta.dims()) {
    return Status::InvalidArgument(
        StrFormat("MergeDelta: delta shape %s does not match base %s",
                  delta.DebugString().c_str(), base->DebugString().c_str()));
  }
  base->Reserve(base->nnz() + delta.nnz());
  for (int64_t e = 0; e < delta.nnz(); ++e) {
    base->AppendUnchecked(delta.IndexPtr(e), delta.value(e));
  }
  base->Canonicalize();
  return Status::OK();
}

Result<DeltaLog> DeltaLogFromTensor(const SparseTensor& triples,
                                    const std::vector<int64_t>& dims,
                                    int64_t epoch_nnz) {
  if (static_cast<int>(dims.size()) != triples.order()) {
    return Status::InvalidArgument(
        StrFormat("DeltaLogFromTensor: target shape has %zu modes, triples "
                  "have %d",
                  dims.size(), triples.order()));
  }
  HATEN2_ASSIGN_OR_RETURN(DeltaLog log, DeltaLog::Create(dims));
  for (int64_t e = 0; e < triples.nnz(); ++e) {
    HATEN2_RETURN_IF_ERROR(
        log.Append(triples.IndexPtr(e), triples.order(), triples.value(e)));
    if (epoch_nnz > 0 && log.open_appends() >= epoch_nnz) {
      HATEN2_RETURN_IF_ERROR(log.SealEpoch().status());
    }
  }
  if (log.open_appends() > 0) {
    HATEN2_RETURN_IF_ERROR(log.SealEpoch().status());
  }
  return log;
}

Status WriteDeltaLogBinary(const DeltaLog& log, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot open for writing: " + path);
  }
  std::string header;
  internal::PutHeader(&header, kMagic, kVersion, log.dims());
  Put<int64_t>(&header, log.num_epochs());
  out.write(header.data(), static_cast<std::streamsize>(header.size()));

  std::string body;
  for (int64_t i = 0; i < log.num_epochs(); ++i) {
    PutEntries(&body, log.epoch(i));
  }
  // The unsealed tail rides along so in-flight appends survive a restart.
  PutEntries(&body, log.open_);
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
  uint64_t checksum = Checksum(body.data(), body.size());
  out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  out.flush();
  if (!out) {
    return Status::IOError("write failed: " + path);
  }
  return Status::OK();
}

Result<DeltaLog> ReadDeltaLogBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open for reading: " + path);
  }
  HATEN2_ASSIGN_OR_RETURN(
      std::vector<int64_t> dims,
      internal::GetHeader(in, path, kMagic, kVersion, "delta log"));
  int64_t num_epochs = 0;
  if (!Get(in, &num_epochs) || num_epochs < 0 ||
      num_epochs > kMaxReasonableEpochs) {
    return Status::InvalidArgument(path + ": implausible epoch count");
  }

  // The body is checksummed as a whole, so slurp it (everything between the
  // header and the trailing 8 checksum bytes), verify, then re-parse.
  std::string body;
  {
    std::string rest((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (rest.size() < sizeof(uint64_t)) {
      return Status::InvalidArgument(path + ": truncated body");
    }
    uint64_t stored_checksum = 0;
    std::memcpy(&stored_checksum, rest.data() + rest.size() - 8, 8);
    body.assign(rest.data(), rest.size() - 8);
    if (stored_checksum != Checksum(body.data(), body.size())) {
      return Status::InvalidArgument(path + ": checksum mismatch");
    }
  }

  HATEN2_ASSIGN_OR_RETURN(DeltaLog log, DeltaLog::Create(dims));
  std::istringstream body_in(body, std::ios::binary);
  for (int64_t i = 0; i < num_epochs; ++i) {
    HATEN2_ASSIGN_OR_RETURN(SparseTensor epoch, SparseTensor::Create(dims));
    HATEN2_RETURN_IF_ERROR(GetEntries(body_in, body.size(), path, &epoch));
    // Sealed epochs were canonical when written; restore the invariant
    // (idempotent) rather than trust the file.
    epoch.Canonicalize();
    log.epochs_.push_back(std::move(epoch));
  }
  // The unsealed tail keeps its append order — it has not been sealed yet.
  HATEN2_RETURN_IF_ERROR(
      GetEntries(body_in, body.size(), path, &log.open_));
  return log;
}

}  // namespace haten2
