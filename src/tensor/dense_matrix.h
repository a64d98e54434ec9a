#ifndef HATEN2_TENSOR_DENSE_MATRIX_H_
#define HATEN2_TENSOR_DENSE_MATRIX_H_

#include <cstdint>
#include <vector>

#include "util/logging.h"
#include "util/random.h"
#include "util/result.h"

namespace haten2 {

/// \brief Row-major dense matrix of doubles.
///
/// Factor matrices A, B, C of the decompositions are DenseMatrix instances
/// (I×R with small R, so dense storage is the right shape even for very
/// large tensors). Heavier kernels (gemm, QR, SVD) live in src/linalg/.
class DenseMatrix {
 public:
  /// Creates an empty 0x0 matrix.
  DenseMatrix() : rows_(0), cols_(0) {}

  /// Creates a zero-initialized rows x cols matrix.
  DenseMatrix(int64_t rows, int64_t cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows * cols), 0.0) {
    HATEN2_CHECK(rows >= 0 && cols >= 0) << "negative matrix shape";
  }

  DenseMatrix(const DenseMatrix&) = default;
  DenseMatrix& operator=(const DenseMatrix&) = default;
  DenseMatrix(DenseMatrix&&) = default;
  DenseMatrix& operator=(DenseMatrix&&) = default;

  /// Builds a matrix from nested initializer data; every row must have the
  /// same length. Intended for tests and examples.
  static DenseMatrix FromRows(
      const std::vector<std::vector<double>>& rows);

  /// Identity matrix of size n.
  static DenseMatrix Identity(int64_t n);

  /// Matrix with i.i.d. Uniform[0,1) entries (the paper's ALS initialization).
  static DenseMatrix RandomUniform(int64_t rows, int64_t cols, Rng* rng);

  /// Matrix with i.i.d. standard normal entries.
  static DenseMatrix RandomNormal(int64_t rows, int64_t cols, Rng* rng);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t size() const { return rows_ * cols_; }

  double operator()(int64_t i, int64_t j) const {
    return data_[static_cast<size_t>(i * cols_ + j)];
  }
  double& operator()(int64_t i, int64_t j) {
    return data_[static_cast<size_t>(i * cols_ + j)];
  }

  /// Bounds-checked accessor for callers handling untrusted indices.
  Result<double> At(int64_t i, int64_t j) const;

  const double* RowPtr(int64_t i) const { return &data_[i * cols_]; }
  double* RowPtr(int64_t i) { return &data_[i * cols_]; }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  void Fill(double v) { std::fill(data_.begin(), data_.end(), v); }

  /// Returns the transposed matrix.
  DenseMatrix Transposed() const;

  /// Element-wise operations (shapes must match; checked).
  DenseMatrix& AddInPlace(const DenseMatrix& other);
  DenseMatrix& SubInPlace(const DenseMatrix& other);
  DenseMatrix& ScaleInPlace(double s);

  /// Frobenius norm.
  double FrobeniusNorm() const;

  /// Maximum absolute difference against another matrix of the same shape.
  double MaxAbsDiff(const DenseMatrix& other) const;

  /// Extracts column j as a vector.
  std::vector<double> Column(int64_t j) const;

  /// Overwrites column j from a vector of length rows().
  void SetColumn(int64_t j, const std::vector<double>& v);

  bool SameShape(const DenseMatrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  int64_t rows_;
  int64_t cols_;
  std::vector<double> data_;
};

/// Gram matrix AᵀA (cols(A) x cols(A)), symmetric by construction. Each
/// entry sums its row products in row order, skipping rows where the left
/// factor is an exact zero (bit-identical to the plain sum for finite
/// inputs: a sum that starts at +0 never becomes -0, so adding ±0 is a
/// no-op).
DenseMatrix Gram(const DenseMatrix& a);

}  // namespace haten2

#endif  // HATEN2_TENSOR_DENSE_MATRIX_H_
