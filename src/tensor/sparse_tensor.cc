#include "tensor/sparse_tensor.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "util/logging.h"
#include "util/string_util.h"

namespace haten2 {

Result<SparseTensor> SparseTensor::Create(std::vector<int64_t> dims) {
  if (dims.empty()) {
    return Status::InvalidArgument("tensor order must be >= 1");
  }
  for (int64_t d : dims) {
    if (d <= 0) {
      return Status::InvalidArgument(
          StrFormat("every mode size must be positive, got %lld",
                    (long long)d));
    }
  }
  return SparseTensor(std::move(dims));
}

uint64_t SparseTensor::NextGeneration() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1) + 1;
}

SparseTensor::SparseTensor(SparseTensor&& other) noexcept
    : dims_(std::move(other.dims_)),
      indices_(std::move(other.indices_)),
      values_(std::move(other.values_)),
      canonical_(other.canonical_),
      generation_(other.generation_) {
  other.BecomeEmpty();
}

SparseTensor& SparseTensor::operator=(SparseTensor&& other) noexcept {
  if (this != &other) {
    dims_ = std::move(other.dims_);
    indices_ = std::move(other.indices_);
    values_ = std::move(other.values_);
    canonical_ = other.canonical_;
    generation_ = other.generation_;
    other.BecomeEmpty();
  }
  return *this;
}

void SparseTensor::BecomeEmpty() {
  dims_.clear();
  indices_.clear();
  values_.clear();
  canonical_ = true;
  generation_ = NextGeneration();
}

double SparseTensor::Density() const {
  int64_t cells = NumCells();
  if (cells == 0) return 0.0;
  return static_cast<double>(nnz()) / static_cast<double>(cells);
}

int64_t SparseTensor::NumCells() const {
  int64_t cells = 1;
  for (int64_t d : dims_) {
    if (d != 0 && cells > std::numeric_limits<int64_t>::max() / d) {
      return std::numeric_limits<int64_t>::max();
    }
    cells *= d;
  }
  return cells;
}

void SparseTensor::Reserve(int64_t n) {
  indices_.reserve(static_cast<size_t>(n) * dims_.size());
  values_.reserve(static_cast<size_t>(n));
}

Status SparseTensor::Append(const int64_t* idx, int idx_len, double value) {
  if (idx_len != order()) {
    return Status::InvalidArgument(
        StrFormat("expected %d indices, got %d", order(), idx_len));
  }
  for (int m = 0; m < order(); ++m) {
    if (idx[m] < 0 || idx[m] >= dims_[static_cast<size_t>(m)]) {
      return Status::OutOfRange(
          StrFormat("index %lld out of range [0, %lld) in mode %d",
                    (long long)idx[m],
                    (long long)dims_[static_cast<size_t>(m)], m));
    }
  }
  AppendUnchecked(idx, value);
  return Status::OK();
}

Status SparseTensor::Append(std::initializer_list<int64_t> idx, double value) {
  return Append(idx.begin(), static_cast<int>(idx.size()), value);
}

void SparseTensor::AppendUnchecked(const int64_t* idx, double value) {
  indices_.insert(indices_.end(), idx, idx + dims_.size());
  values_.push_back(value);
  canonical_ = false;
}

void SparseTensor::Canonicalize() {
  generation_ = NextGeneration();
  const size_t n = values_.size();
  const size_t ord = dims_.size();
  if (n == 0) {
    canonical_ = true;
    return;
  }
  std::vector<int64_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  const int64_t* idx = indices_.data();
  std::sort(perm.begin(), perm.end(), [idx, ord](int64_t a, int64_t b) {
    const int64_t* pa = idx + static_cast<size_t>(a) * ord;
    const int64_t* pb = idx + static_cast<size_t>(b) * ord;
    return std::lexicographical_compare(pa, pa + ord, pb, pb + ord);
  });

  std::vector<int64_t> new_indices;
  std::vector<double> new_values;
  new_indices.reserve(indices_.size());
  new_values.reserve(n);
  for (size_t p = 0; p < n; ++p) {
    const int64_t* src =
        indices_.data() + static_cast<size_t>(perm[p]) * ord;
    double v = values_[static_cast<size_t>(perm[p])];
    if (!new_values.empty()) {
      const int64_t* last = new_indices.data() + new_indices.size() - ord;
      if (std::equal(src, src + ord, last)) {
        new_values.back() += v;
        continue;
      }
    }
    new_indices.insert(new_indices.end(), src, src + ord);
    new_values.push_back(v);
  }
  // Drop exact zeros produced by cancellation or explicit zero appends.
  std::vector<int64_t> final_indices;
  std::vector<double> final_values;
  final_indices.reserve(new_indices.size());
  final_values.reserve(new_values.size());
  for (size_t e = 0; e < new_values.size(); ++e) {
    if (new_values[e] == 0.0) continue;
    const int64_t* src = new_indices.data() + e * ord;
    final_indices.insert(final_indices.end(), src, src + ord);
    final_values.push_back(new_values[e]);
  }
  indices_ = std::move(final_indices);
  values_ = std::move(final_values);
  canonical_ = true;
}

SparseTensor SparseTensor::Binarized() const {
  SparseTensor out(*this);
  std::fill(out.values_.begin(), out.values_.end(), 1.0);
  out.generation_ = NextGeneration();
  return out;
}

double SparseTensor::Get(const std::vector<int64_t>& idx) const {
  HATEN2_CHECK(canonical_) << "Get requires a canonical tensor";
  HATEN2_CHECK(static_cast<int>(idx.size()) == order())
      << "Get arity mismatch";
  const size_t ord = dims_.size();
  int64_t lo = 0;
  int64_t hi = nnz();
  const int64_t* base = indices_.data();
  while (lo < hi) {
    int64_t mid = lo + (hi - lo) / 2;
    const int64_t* p = base + static_cast<size_t>(mid) * ord;
    if (std::lexicographical_compare(p, p + ord, idx.data(),
                                     idx.data() + ord)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < nnz()) {
    const int64_t* p = base + static_cast<size_t>(lo) * ord;
    if (std::equal(p, p + ord, idx.data())) {
      return values_[static_cast<size_t>(lo)];
    }
  }
  return 0.0;
}

double SparseTensor::SumSquares() const {
  double s = 0.0;
  for (double v : values_) s += v * v;
  return s;
}

double SparseTensor::FrobeniusNorm() const { return std::sqrt(SumSquares()); }

double SparseTensor::Sum() const {
  double s = 0.0;
  for (double v : values_) s += v;
  return s;
}

Result<SparseTensor> SparseTensor::CollapseMode(int mode) const {
  if (order() < 2) {
    return Status::FailedPrecondition(
        "CollapseMode requires a tensor of order >= 2");
  }
  if (mode < 0 || mode >= order()) {
    return Status::InvalidArgument(
        StrFormat("mode %d out of range for order %d", mode, order()));
  }
  std::vector<int64_t> out_dims;
  out_dims.reserve(dims_.size() - 1);
  for (int m = 0; m < order(); ++m) {
    if (m != mode) out_dims.push_back(dims_[static_cast<size_t>(m)]);
  }
  SparseTensor out(std::move(out_dims));
  out.Reserve(nnz());
  std::vector<int64_t> proj(static_cast<size_t>(order() - 1));
  for (int64_t e = 0; e < nnz(); ++e) {
    const int64_t* src = IndexPtr(e);
    size_t w = 0;
    for (int m = 0; m < order(); ++m) {
      if (m != mode) proj[w++] = src[m];
    }
    out.AppendUnchecked(proj.data(), value(e));
  }
  out.Canonicalize();
  return out;
}

Status SparseTensor::Validate() const {
  const size_t ord = dims_.size();
  if (ord == 0 && !values_.empty()) {
    return Status::Internal("0-way tensor holds entries");
  }
  if (indices_.size() != values_.size() * ord) {
    return Status::Internal("index/value array length mismatch");
  }
  for (int64_t e = 0; e < nnz(); ++e) {
    for (int m = 0; m < order(); ++m) {
      int64_t v = index(e, m);
      if (v < 0 || v >= dims_[static_cast<size_t>(m)]) {
        return Status::Internal(StrFormat(
            "entry %lld mode %d index %lld out of range", (long long)e, m,
            (long long)v));
      }
    }
  }
  return Status::OK();
}

uint64_t SparseTensor::ApproxBytes() const {
  return static_cast<uint64_t>(indices_.size()) * sizeof(int64_t) +
         static_cast<uint64_t>(values_.size()) * sizeof(double);
}

std::string SparseTensor::DebugString() const {
  std::string dims_str;
  for (size_t m = 0; m < dims_.size(); ++m) {
    if (m > 0) dims_str += "x";
    dims_str += StrFormat("%lld", (long long)dims_[m]);
  }
  return StrFormat("%d-way %s, nnz=%lld", order(), dims_str.c_str(),
                   (long long)nnz());
}

bool SparseTensor::IdenticalTo(const SparseTensor& other) const {
  return dims_ == other.dims_ && indices_ == other.indices_ &&
         values_ == other.values_;
}

}  // namespace haten2
