#ifndef HATEN2_TENSOR_SPARSE_TENSOR_H_
#define HATEN2_TENSOR_SPARSE_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace haten2 {

/// \brief N-way sparse tensor in coordinate (COO) format.
///
/// Storage is structure-of-arrays: a flat index array of nnz*order entries
/// (entry e occupies indices_[e*order .. e*order+order-1]) plus a value
/// array. This is the on-"disk" representation HaTen2 assumes for input
/// tensors: one (i_1, ..., i_N, value) record per nonzero.
///
/// Invariants after Canonicalize(): entries are sorted lexicographically by
/// index, duplicate coordinates are summed, and exact zeros are dropped.
/// Append does not maintain the invariant; builders call Canonicalize() once.
class SparseTensor {
 public:
  /// Creates an empty 0-way tensor; usable only as a move-assignment target.
  SparseTensor() = default;

  /// Creates an empty tensor with the given mode sizes. Every dim must be
  /// positive and the order must be >= 1.
  static Result<SparseTensor> Create(std::vector<int64_t> dims);

  /// Convenience for 3-way tensors.
  static Result<SparseTensor> Create3(int64_t i, int64_t j, int64_t k) {
    return Create({i, j, k});
  }

  /// Copies keep the source's generation(): their content is equal.
  SparseTensor(const SparseTensor&) = default;
  SparseTensor& operator=(const SparseTensor&) = default;
  /// The destination takes the source's content and generation(); the
  /// source is left an empty 0-way tensor under a new generation.
  SparseTensor(SparseTensor&& other) noexcept;
  SparseTensor& operator=(SparseTensor&& other) noexcept;

  int order() const { return static_cast<int>(dims_.size()); }
  const std::vector<int64_t>& dims() const { return dims_; }
  int64_t dim(int mode) const { return dims_[static_cast<size_t>(mode)]; }
  int64_t nnz() const { return static_cast<int64_t>(values_.size()); }

  /// Fraction of cells that are nonzero.
  double Density() const;

  /// Total number of cells (product of dims), saturating at int64 max.
  int64_t NumCells() const;

  void Reserve(int64_t n);

  /// Appends a nonzero. Bounds-checked; returns InvalidArgument on a
  /// coordinate outside dims() or wrong arity.
  Status Append(const int64_t* idx, int idx_len, double value);
  Status Append(std::initializer_list<int64_t> idx, double value);

  /// Unchecked append for hot paths that already validated coordinates.
  void AppendUnchecked(const int64_t* idx, double value);

  /// Index of entry e along `mode`.
  int64_t index(int64_t e, int mode) const {
    return indices_[static_cast<size_t>(e) * dims_.size() +
                    static_cast<size_t>(mode)];
  }
  double value(int64_t e) const { return values_[static_cast<size_t>(e)]; }
  void set_value(int64_t e, double v) {
    values_[static_cast<size_t>(e)] = v;
    generation_ = NextGeneration();
  }

  /// Pointer to entry e's coordinate tuple (order() consecutive int64s).
  const int64_t* IndexPtr(int64_t e) const {
    return &indices_[static_cast<size_t>(e) * dims_.size()];
  }

  /// Sorts entries lexicographically, merges duplicates (summing values) and
  /// drops entries whose merged value is exactly zero.
  void Canonicalize();

  bool canonical() const { return canonical_; }

  /// Content stamp, drawn from one process-wide counter. A tensor takes a
  /// new stamp at construction, in Canonicalize() and set_value(), as the
  /// result of Binarized(), and as the moved-from side of a move; copies
  /// keep the stamp. Append/AppendUnchecked/Reserve take none (the load
  /// path stays free): appends clear canonical(), which only Canonicalize()
  /// or an assignment from a canonical tensor sets again. So two
  /// *canonical* tensors with equal stamps hold equal content; a
  /// non-canonical tensor's stamp says nothing. ContractCache keys on this
  /// instead of hashing every entry.
  uint64_t generation() const { return generation_; }

  /// Returns bin(X): same pattern, every stored value replaced by 1.0.
  SparseTensor Binarized() const;

  /// Value at a coordinate (0 when absent). Requires canonical();
  /// binary-searches the sorted entries.
  double Get(const std::vector<int64_t>& idx) const;

  /// Sum of squared values, and its square root.
  double SumSquares() const;
  double FrobeniusNorm() const;

  /// Sum of all values.
  double Sum() const;

  /// Returns a tensor with `mode` removed and entries' coordinates projected;
  /// duplicate projected coordinates are summed (the paper's Collapse).
  /// Requires order() >= 2.
  Result<SparseTensor> CollapseMode(int mode) const;

  /// Checks internal consistency (entry bounds, array lengths).
  Status Validate() const;

  /// Approximate in-memory footprint in bytes.
  uint64_t ApproxBytes() const;

  /// Short human-readable description, e.g. "3-way 100x100x100, nnz=1000".
  std::string DebugString() const;

  /// True when dims, entries and values are all exactly equal. Both sides
  /// should be canonical for a meaningful comparison.
  bool IdenticalTo(const SparseTensor& other) const;

 private:
  explicit SparseTensor(std::vector<int64_t> dims)
      : dims_(std::move(dims)) {}

  /// The moved-from state: an empty 0-way tensor under a new generation.
  void BecomeEmpty();

  /// A value no tensor has held before (thread-safe).
  static uint64_t NextGeneration();

  std::vector<int64_t> dims_;
  std::vector<int64_t> indices_;  // nnz * order, row-major per entry
  std::vector<double> values_;
  bool canonical_ = true;  // empty tensor is trivially canonical
  uint64_t generation_ = NextGeneration();
};

}  // namespace haten2

#endif  // HATEN2_TENSOR_SPARSE_TENSOR_H_
