#ifndef HATEN2_TENSOR_DELTA_LOG_H_
#define HATEN2_TENSOR_DELTA_LOG_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "tensor/sparse_tensor.h"
#include "util/result.h"
#include "util/status.h"

namespace haten2 {

/// \brief Append-only triple log with epoch sealing — the CDC-style ingest
/// buffer for growing tensors.
///
/// Writers append (coordinates, value) triples into an open buffer;
/// SealEpoch() canonicalizes the buffer into one immutable per-epoch
/// SparseTensor delta. A delta is *additive*: merging it into a base tensor
/// appends its entries and re-canonicalizes, so duplicates sum and exact
/// cancellations drop. Deletions are therefore expressed by appending the
/// negation of the current value, and updates by appending the difference —
/// the same convention the incremental ALS path's dirty-slice invalidation
/// assumes (every coordinate a delta names is by definition dirty).
///
/// Coordinates are bounds-checked against the dims the log was created
/// with: the log cannot express a tensor that grows a mode, only one that
/// fills in declared space. That keeps the factor-matrix shapes of a
/// warm-started refit fixed; mode growth needs a fresh decomposition.
class DeltaLog {
 public:
  DeltaLog() = default;

  /// Creates an empty log for tensors of the given shape. Every dim must be
  /// positive and the order must be >= 1.
  static Result<DeltaLog> Create(std::vector<int64_t> dims);

  int order() const { return static_cast<int>(dims_.size()); }
  const std::vector<int64_t>& dims() const { return dims_; }

  /// Appends a triple to the open (unsealed) buffer. Bounds-checked against
  /// dims(); returns InvalidArgument on a coordinate outside them.
  Status Append(const int64_t* idx, int idx_len, double value);
  Status Append(std::initializer_list<int64_t> idx, double value);

  /// Number of raw appends sitting in the open buffer (before duplicate
  /// merging — sealing may produce fewer stored entries).
  int64_t open_appends() const { return open_.nnz(); }

  /// Seals the open buffer into the next epoch delta and starts a fresh
  /// buffer. Returns the index of the sealed epoch. Refuses to seal when
  /// nothing was appended (an empty epoch carries no information); a buffer
  /// whose entries all cancel seals into an empty delta, which is fine.
  Result<int64_t> SealEpoch();

  int64_t num_epochs() const { return static_cast<int64_t>(epochs_.size()); }
  const SparseTensor& epoch(int64_t i) const {
    return epochs_[static_cast<size_t>(i)];
  }

  /// Total stored nonzeros across all sealed epochs.
  int64_t sealed_nnz() const;

 private:
  explicit DeltaLog(std::vector<int64_t> dims);

  // The binary writer streams the unsealed tail; the reader reconstructs
  // sealed epochs (including ones whose entries all cancelled, which
  // SealEpoch would refuse to create from an empty buffer) and that tail
  // directly.
  friend Status WriteDeltaLogBinary(const DeltaLog& log,
                                    const std::string& path);
  friend Result<DeltaLog> ReadDeltaLogBinary(const std::string& path);

  std::vector<int64_t> dims_;
  std::vector<SparseTensor> epochs_;
  SparseTensor open_;
};

/// Merges one additive delta into `base` in place: appends every delta entry
/// and re-canonicalizes. Dims must match exactly.
Status MergeDelta(SparseTensor* base, const SparseTensor& delta);

/// Re-plays a triples tensor into a DeltaLog with the given target shape,
/// sealing an epoch every `epoch_nnz` appends (<= 0 means one epoch holding
/// everything). Entries are consumed in storage order, so a text/binary
/// ingest file becomes a deterministic epoch sequence. Coordinates must fit
/// `dims` (which may exceed the triples tensor's own declared shape).
Result<DeltaLog> DeltaLogFromTensor(const SparseTensor& triples,
                                    const std::vector<int64_t>& dims,
                                    int64_t epoch_nnz);

/// Binary round-trip of a whole log (sealed epochs + open buffer), same
/// conventions as tensor_binary_io: magic "HATEN2D\0", fixed-width
/// little-endian fields, XOR-fold checksum over the entry bytes, loud
/// failures on truncation or corruption.
Status WriteDeltaLogBinary(const DeltaLog& log, const std::string& path);
Result<DeltaLog> ReadDeltaLogBinary(const std::string& path);

}  // namespace haten2

#endif  // HATEN2_TENSOR_DELTA_LOG_H_
