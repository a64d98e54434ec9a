#include "tensor/tensor_ops.h"

#include <cmath>

#include "util/logging.h"
#include "util/string_util.h"

namespace haten2 {

namespace {

Status CheckMode(const SparseTensor& x, int mode) {
  if (mode < 0 || mode >= x.order()) {
    return Status::InvalidArgument(
        StrFormat("mode %d out of range for order %d", mode, x.order()));
  }
  return Status::OK();
}

Status CheckFactors(const SparseTensor& x,
                    const std::vector<const DenseMatrix*>& factors,
                    int64_t* rank) {
  if (static_cast<int>(factors.size()) != x.order()) {
    return Status::InvalidArgument(
        StrFormat("expected %d factor matrices, got %d", x.order(),
                  static_cast<int>(factors.size())));
  }
  *rank = -1;
  for (int m = 0; m < x.order(); ++m) {
    const DenseMatrix* f = factors[static_cast<size_t>(m)];
    if (f == nullptr) {
      return Status::InvalidArgument("null factor matrix");
    }
    if (f->rows() != x.dim(m)) {
      return Status::InvalidArgument(
          StrFormat("factor %d has %lld rows, expected %lld", m,
                    (long long)f->rows(), (long long)x.dim(m)));
    }
    if (*rank == -1) {
      *rank = f->cols();
    } else if (f->cols() != *rank) {
      return Status::InvalidArgument("factor matrices disagree on rank");
    }
  }
  return Status::OK();
}

}  // namespace

Result<SparseTensor> Ttv(const SparseTensor& x, const std::vector<double>& v,
                         int mode) {
  HATEN2_RETURN_IF_ERROR(CheckMode(x, mode));
  if (static_cast<int64_t>(v.size()) != x.dim(mode)) {
    return Status::InvalidArgument(
        StrFormat("vector length %lld != mode size %lld",
                  (long long)v.size(), (long long)x.dim(mode)));
  }
  if (x.order() == 1) {
    return Status::Unimplemented(
        "Ttv on an order-1 tensor is a scalar; not representable");
  }
  std::vector<int64_t> out_dims;
  for (int m = 0; m < x.order(); ++m) {
    if (m != mode) out_dims.push_back(x.dim(m));
  }
  HATEN2_ASSIGN_OR_RETURN(SparseTensor out,
                          SparseTensor::Create(std::move(out_dims)));
  out.Reserve(x.nnz());
  std::vector<int64_t> proj(static_cast<size_t>(x.order() - 1));
  for (int64_t e = 0; e < x.nnz(); ++e) {
    const int64_t* idx = x.IndexPtr(e);
    double scale = v[static_cast<size_t>(idx[mode])];
    if (scale == 0.0) continue;
    size_t w = 0;
    for (int m = 0; m < x.order(); ++m) {
      if (m != mode) proj[w++] = idx[m];
    }
    out.AppendUnchecked(proj.data(), x.value(e) * scale);
  }
  out.Canonicalize();
  return out;
}

Result<SparseTensor> Ttm(const SparseTensor& x, const DenseMatrix& u,
                         int mode) {
  HATEN2_RETURN_IF_ERROR(CheckMode(x, mode));
  if (u.cols() != x.dim(mode)) {
    return Status::InvalidArgument(
        StrFormat("matrix has %lld cols, expected mode size %lld",
                  (long long)u.cols(), (long long)x.dim(mode)));
  }
  std::vector<int64_t> out_dims = x.dims();
  out_dims[static_cast<size_t>(mode)] = u.rows();
  HATEN2_ASSIGN_OR_RETURN(SparseTensor out,
                          SparseTensor::Create(std::move(out_dims)));
  out.Reserve(x.nnz() * u.rows());
  std::vector<int64_t> idx_buf(static_cast<size_t>(x.order()));
  for (int64_t e = 0; e < x.nnz(); ++e) {
    const int64_t* idx = x.IndexPtr(e);
    for (int m = 0; m < x.order(); ++m) idx_buf[static_cast<size_t>(m)] = idx[m];
    const int64_t in = idx[mode];
    for (int64_t f = 0; f < u.rows(); ++f) {
      double scaled = x.value(e) * u(f, in);
      if (scaled == 0.0) continue;
      idx_buf[static_cast<size_t>(mode)] = f;
      out.AppendUnchecked(idx_buf.data(), scaled);
    }
  }
  out.Canonicalize();
  return out;
}

Result<SparseTensor> TtmTransposed(const SparseTensor& x,
                                   const DenseMatrix& b, int mode) {
  HATEN2_RETURN_IF_ERROR(CheckMode(x, mode));
  if (b.rows() != x.dim(mode)) {
    return Status::InvalidArgument(
        StrFormat("matrix has %lld rows, expected mode size %lld",
                  (long long)b.rows(), (long long)x.dim(mode)));
  }
  std::vector<int64_t> out_dims = x.dims();
  out_dims[static_cast<size_t>(mode)] = b.cols();
  HATEN2_ASSIGN_OR_RETURN(SparseTensor out,
                          SparseTensor::Create(std::move(out_dims)));
  out.Reserve(x.nnz() * b.cols());
  std::vector<int64_t> idx_buf(static_cast<size_t>(x.order()));
  for (int64_t e = 0; e < x.nnz(); ++e) {
    const int64_t* idx = x.IndexPtr(e);
    for (int m = 0; m < x.order(); ++m) idx_buf[static_cast<size_t>(m)] = idx[m];
    const int64_t in = idx[mode];
    for (int64_t f = 0; f < b.cols(); ++f) {
      double scaled = x.value(e) * b(in, f);
      if (scaled == 0.0) continue;
      idx_buf[static_cast<size_t>(mode)] = f;
      out.AppendUnchecked(idx_buf.data(), scaled);
    }
  }
  out.Canonicalize();
  return out;
}

Result<SparseTensor> NModeVectorHadamard(const SparseTensor& x,
                                         const std::vector<double>& v,
                                         int mode) {
  HATEN2_RETURN_IF_ERROR(CheckMode(x, mode));
  if (static_cast<int64_t>(v.size()) != x.dim(mode)) {
    return Status::InvalidArgument(
        StrFormat("vector length %lld != mode size %lld",
                  (long long)v.size(), (long long)x.dim(mode)));
  }
  HATEN2_ASSIGN_OR_RETURN(SparseTensor out, SparseTensor::Create(x.dims()));
  out.Reserve(x.nnz());
  for (int64_t e = 0; e < x.nnz(); ++e) {
    const int64_t* idx = x.IndexPtr(e);
    double scaled = x.value(e) * v[static_cast<size_t>(idx[mode])];
    if (scaled == 0.0) continue;
    out.AppendUnchecked(idx, scaled);
  }
  out.Canonicalize();
  return out;
}

Result<SparseTensor> NModeMatrixHadamard(const SparseTensor& x,
                                         const DenseMatrix& u, int mode) {
  HATEN2_RETURN_IF_ERROR(CheckMode(x, mode));
  if (u.cols() != x.dim(mode)) {
    return Status::InvalidArgument(
        StrFormat("matrix has %lld cols, expected mode size %lld",
                  (long long)u.cols(), (long long)x.dim(mode)));
  }
  std::vector<int64_t> out_dims = x.dims();
  out_dims.push_back(u.rows());
  HATEN2_ASSIGN_OR_RETURN(SparseTensor out,
                          SparseTensor::Create(std::move(out_dims)));
  out.Reserve(x.nnz() * u.rows());
  std::vector<int64_t> idx_buf(static_cast<size_t>(x.order() + 1));
  for (int64_t e = 0; e < x.nnz(); ++e) {
    const int64_t* idx = x.IndexPtr(e);
    for (int m = 0; m < x.order(); ++m) idx_buf[static_cast<size_t>(m)] = idx[m];
    for (int64_t q = 0; q < u.rows(); ++q) {
      double scaled = x.value(e) * u(q, idx[mode]);
      if (scaled == 0.0) continue;
      idx_buf[static_cast<size_t>(x.order())] = q;
      out.AppendUnchecked(idx_buf.data(), scaled);
    }
  }
  out.Canonicalize();
  return out;
}

Result<DenseMatrix> Mttkrp(const SparseTensor& x,
                           const std::vector<const DenseMatrix*>& factors,
                           int mode) {
  HATEN2_RETURN_IF_ERROR(CheckMode(x, mode));
  int64_t rank = 0;
  HATEN2_RETURN_IF_ERROR(CheckFactors(x, factors, &rank));
  DenseMatrix out(x.dim(mode), rank);
  std::vector<double> row(static_cast<size_t>(rank));
  for (int64_t e = 0; e < x.nnz(); ++e) {
    const int64_t* idx = x.IndexPtr(e);
    std::fill(row.begin(), row.end(), x.value(e));
    for (int m = 0; m < x.order(); ++m) {
      if (m == mode) continue;
      const double* fr = factors[static_cast<size_t>(m)]->RowPtr(idx[m]);
      for (int64_t r = 0; r < rank; ++r) row[static_cast<size_t>(r)] *= fr[r];
    }
    double* orow = out.RowPtr(idx[mode]);
    for (int64_t r = 0; r < rank; ++r) orow[r] += row[static_cast<size_t>(r)];
  }
  return out;
}

Result<DenseMatrix> KhatriRao(const DenseMatrix& a, const DenseMatrix& b) {
  if (a.cols() != b.cols()) {
    return Status::InvalidArgument(
        "Khatri-Rao operands must have the same number of columns");
  }
  DenseMatrix out(a.rows() * b.rows(), a.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < b.rows(); ++j) {
      double* orow = out.RowPtr(i * b.rows() + j);
      const double* ar = a.RowPtr(i);
      const double* br = b.RowPtr(j);
      for (int64_t r = 0; r < a.cols(); ++r) orow[r] = ar[r] * br[r];
    }
  }
  return out;
}

DenseMatrix Kronecker(const DenseMatrix& a, const DenseMatrix& b) {
  DenseMatrix out(a.rows() * b.rows(), a.cols() * b.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t k = 0; k < a.cols(); ++k) {
      double av = a(i, k);
      if (av == 0.0) continue;
      for (int64_t j = 0; j < b.rows(); ++j) {
        for (int64_t l = 0; l < b.cols(); ++l) {
          out(i * b.rows() + j, k * b.cols() + l) = av * b(j, l);
        }
      }
    }
  }
  return out;
}

Result<DenseTensor> ReconstructKruskal(
    const std::vector<double>& lambda,
    const std::vector<const DenseMatrix*>& factors) {
  if (factors.empty()) {
    return Status::InvalidArgument("need at least one factor matrix");
  }
  int64_t rank = factors[0]->cols();
  if (static_cast<int64_t>(lambda.size()) != rank) {
    return Status::InvalidArgument("lambda length must equal rank");
  }
  std::vector<int64_t> dims;
  for (const DenseMatrix* f : factors) {
    if (f == nullptr || f->cols() != rank) {
      return Status::InvalidArgument("inconsistent factor matrices");
    }
    dims.push_back(f->rows());
  }
  HATEN2_ASSIGN_OR_RETURN(DenseTensor out, DenseTensor::Create(dims));
  std::vector<int64_t> idx(dims.size(), 0);
  for (int64_t lin = 0; lin < out.size(); ++lin) {
    double sum = 0.0;
    for (int64_t r = 0; r < rank; ++r) {
      double p = lambda[static_cast<size_t>(r)];
      for (size_t m = 0; m < dims.size(); ++m) {
        p *= (*factors[m])(idx[m], r);
      }
      sum += p;
    }
    out.data()[static_cast<size_t>(lin)] = sum;
    for (size_t m = dims.size(); m-- > 0;) {
      if (++idx[m] < dims[m]) break;
      idx[m] = 0;
    }
  }
  return out;
}

Result<DenseTensor> ReconstructTucker(
    const DenseTensor& core, const std::vector<const DenseMatrix*>& factors) {
  if (static_cast<int>(factors.size()) != core.order()) {
    return Status::InvalidArgument(
        "need one factor matrix per core tensor mode");
  }
  std::vector<int64_t> dims;
  for (int m = 0; m < core.order(); ++m) {
    const DenseMatrix* f = factors[static_cast<size_t>(m)];
    if (f == nullptr || f->cols() != core.dim(m)) {
      return Status::InvalidArgument(StrFormat(
          "factor %d column count must equal core mode size %lld", m,
          (long long)core.dim(m)));
    }
    dims.push_back(f->rows());
  }
  HATEN2_ASSIGN_OR_RETURN(DenseTensor out, DenseTensor::Create(dims));
  std::vector<int64_t> idx(dims.size(), 0);
  std::vector<int64_t> cidx(dims.size(), 0);
  for (int64_t lin = 0; lin < out.size(); ++lin) {
    double sum = 0.0;
    std::fill(cidx.begin(), cidx.end(), 0);
    for (int64_t clin = 0; clin < core.size(); ++clin) {
      double p = core.data()[static_cast<size_t>(clin)];
      if (p != 0.0) {
        for (size_t m = 0; m < dims.size(); ++m) {
          p *= (*factors[m])(idx[m], cidx[m]);
        }
        sum += p;
      }
      for (size_t m = dims.size(); m-- > 0;) {
        if (++cidx[m] < core.dim(static_cast<int>(m))) break;
        cidx[m] = 0;
      }
    }
    out.data()[static_cast<size_t>(lin)] = sum;
    for (size_t m = dims.size(); m-- > 0;) {
      if (++idx[m] < dims[m]) break;
      idx[m] = 0;
    }
  }
  return out;
}

Result<double> InnerProductKruskal(
    const SparseTensor& x, const std::vector<double>& lambda,
    const std::vector<const DenseMatrix*>& factors) {
  int64_t rank = 0;
  HATEN2_RETURN_IF_ERROR(CheckFactors(x, factors, &rank));
  if (static_cast<int64_t>(lambda.size()) != rank) {
    return Status::InvalidArgument("lambda length must equal rank");
  }
  const int order = x.order();
  std::vector<const double*> rows(static_cast<size_t>(order));
  double total = 0.0;
  for (int64_t e = 0; e < x.nnz(); ++e) {
    const int64_t* idx = x.IndexPtr(e);
    for (int m = 0; m < order; ++m) {
      rows[static_cast<size_t>(m)] =
          factors[static_cast<size_t>(m)]->RowPtr(idx[m]);
    }
    double per_entry = 0.0;
    for (int64_t r = 0; r < rank; ++r) {
      double p = lambda[static_cast<size_t>(r)];
      for (int m = 0; m < order; ++m) p *= rows[static_cast<size_t>(m)][r];
      per_entry += p;
    }
    total += x.value(e) * per_entry;
  }
  return total;
}

Result<double> KruskalNormSquared(
    const std::vector<double>& lambda,
    const std::vector<const DenseMatrix*>& factors) {
  if (factors.empty()) {
    return Status::InvalidArgument("need at least one factor matrix");
  }
  const int64_t rank = factors[0]->cols();
  if (static_cast<int64_t>(lambda.size()) != rank) {
    return Status::InvalidArgument("lambda length must equal rank");
  }
  std::vector<DenseMatrix> grams;
  grams.reserve(factors.size());
  for (const DenseMatrix* f : factors) {
    if (f == nullptr || f->cols() != rank) {
      return Status::InvalidArgument("inconsistent factor matrices");
    }
    grams.push_back(Gram(*f));
  }
  return KruskalNormSquaredFromGrams(lambda, grams);
}

Result<double> KruskalNormSquaredFromGrams(
    const std::vector<double>& lambda, const std::vector<DenseMatrix>& grams) {
  const int64_t rank = static_cast<int64_t>(lambda.size());
  for (const DenseMatrix& g : grams) {
    if (g.rows() != rank || g.cols() != rank) {
      return Status::InvalidArgument("lambda length must equal rank");
    }
  }
  double total = 0.0;
  for (int64_t r = 0; r < rank; ++r) {
    for (int64_t s = 0; s < rank; ++s) {
      // Π_m G_m(r, s), multiplied into 1.0 in mode order.
      double prod = 1.0;
      for (const DenseMatrix& g : grams) prod *= g(r, s);
      total += lambda[static_cast<size_t>(r)] *
               lambda[static_cast<size_t>(s)] * prod;
    }
  }
  return total;
}

Result<SparseTensor> SparseUnfold(const SparseTensor& x, int mode) {
  HATEN2_RETURN_IF_ERROR(CheckMode(x, mode));
  if (x.order() < 2) {
    return Status::InvalidArgument("unfold requires order >= 2");
  }
  std::vector<int64_t> weights(static_cast<size_t>(x.order()), 0);
  int64_t cols = 1;
  for (int m = 0; m < x.order(); ++m) {
    if (m == mode) continue;
    weights[static_cast<size_t>(m)] = cols;
    cols *= x.dim(m);
  }
  HATEN2_ASSIGN_OR_RETURN(SparseTensor out,
                          SparseTensor::Create({x.dim(mode), cols}));
  out.Reserve(x.nnz());
  for (int64_t e = 0; e < x.nnz(); ++e) {
    const int64_t* idx = x.IndexPtr(e);
    int64_t col = 0;
    for (int m = 0; m < x.order(); ++m) {
      if (m != mode) col += idx[m] * weights[static_cast<size_t>(m)];
    }
    int64_t coord[2] = {idx[mode], col};
    out.AppendUnchecked(coord, x.value(e));
  }
  out.Canonicalize();
  return out;
}

}  // namespace haten2
