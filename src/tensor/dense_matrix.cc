#include "tensor/dense_matrix.h"

#include <algorithm>
#include <cmath>

#include "util/string_util.h"

namespace haten2 {

DenseMatrix DenseMatrix::FromRows(
    const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return DenseMatrix();
  DenseMatrix m(static_cast<int64_t>(rows.size()),
                static_cast<int64_t>(rows[0].size()));
  for (size_t i = 0; i < rows.size(); ++i) {
    HATEN2_CHECK(rows[i].size() == rows[0].size())
        << "ragged rows in DenseMatrix::FromRows";
    std::copy(rows[i].begin(), rows[i].end(),
              m.RowPtr(static_cast<int64_t>(i)));
  }
  return m;
}

DenseMatrix DenseMatrix::Identity(int64_t n) {
  DenseMatrix m(n, n);
  for (int64_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

DenseMatrix DenseMatrix::RandomUniform(int64_t rows, int64_t cols, Rng* rng) {
  DenseMatrix m(rows, cols);
  for (double& v : m.data()) v = rng->Uniform();
  return m;
}

DenseMatrix DenseMatrix::RandomNormal(int64_t rows, int64_t cols, Rng* rng) {
  DenseMatrix m(rows, cols);
  for (double& v : m.data()) v = rng->Normal();
  return m;
}

Result<double> DenseMatrix::At(int64_t i, int64_t j) const {
  if (i < 0 || i >= rows_ || j < 0 || j >= cols_) {
    return Status::OutOfRange(
        StrFormat("index (%lld, %lld) out of range for %lldx%lld matrix",
                  (long long)i, (long long)j, (long long)rows_,
                  (long long)cols_));
  }
  return (*this)(i, j);
}

DenseMatrix DenseMatrix::Transposed() const {
  DenseMatrix t(cols_, rows_);
  for (int64_t i = 0; i < rows_; ++i) {
    for (int64_t j = 0; j < cols_; ++j) {
      t(j, i) = (*this)(i, j);
    }
  }
  return t;
}

DenseMatrix& DenseMatrix::AddInPlace(const DenseMatrix& other) {
  HATEN2_CHECK(SameShape(other)) << "shape mismatch in AddInPlace";
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

DenseMatrix& DenseMatrix::SubInPlace(const DenseMatrix& other) {
  HATEN2_CHECK(SameShape(other)) << "shape mismatch in SubInPlace";
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

DenseMatrix& DenseMatrix::ScaleInPlace(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

double DenseMatrix::FrobeniusNorm() const {
  double sum = 0.0;
  for (double v : data_) sum += v * v;
  return std::sqrt(sum);
}

double DenseMatrix::MaxAbsDiff(const DenseMatrix& other) const {
  HATEN2_CHECK(SameShape(other)) << "shape mismatch in MaxAbsDiff";
  double m = 0.0;
  for (size_t i = 0; i < data_.size(); ++i) {
    m = std::max(m, std::fabs(data_[i] - other.data_[i]));
  }
  return m;
}

std::vector<double> DenseMatrix::Column(int64_t j) const {
  std::vector<double> col(static_cast<size_t>(rows_));
  for (int64_t i = 0; i < rows_; ++i) col[i] = (*this)(i, j);
  return col;
}

void DenseMatrix::SetColumn(int64_t j, const std::vector<double>& v) {
  HATEN2_CHECK(static_cast<int64_t>(v.size()) == rows_)
      << "column length mismatch in SetColumn";
  for (int64_t i = 0; i < rows_; ++i) (*this)(i, j) = v[i];
}

DenseMatrix Gram(const DenseMatrix& a) {
  DenseMatrix g(a.cols(), a.cols());
  for (int64_t k = 0; k < a.rows(); ++k) {
    const double* arow = a.RowPtr(k);
    for (int64_t i = 0; i < a.cols(); ++i) {
      double av = arow[i];
      if (av == 0.0) continue;
      double* grow = g.RowPtr(i);
      for (int64_t j = i; j < a.cols(); ++j) grow[j] += av * arow[j];
    }
  }
  // Mirror the upper triangle.
  for (int64_t i = 0; i < a.cols(); ++i) {
    for (int64_t j = 0; j < i; ++j) g(i, j) = g(j, i);
  }
  return g;
}

}  // namespace haten2
