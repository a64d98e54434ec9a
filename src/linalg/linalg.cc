#include "linalg/linalg.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.h"
#include "util/string_util.h"

namespace haten2 {

namespace {

Status CheckMulShapes(const DenseMatrix& b, int64_t inner_a,
                      const char* what) {
  if (inner_a != b.rows()) {
    return Status::InvalidArgument(
        StrFormat("%s: inner dimensions %lld and %lld do not match", what,
                  (long long)inner_a, (long long)b.rows()));
  }
  return Status::OK();
}

}  // namespace

Result<DenseMatrix> MatMul(const DenseMatrix& a, const DenseMatrix& b) {
  HATEN2_RETURN_IF_ERROR(CheckMulShapes(b, a.cols(), "MatMul"));
  DenseMatrix c(a.rows(), b.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.RowPtr(i);
    double* crow = c.RowPtr(i);
    for (int64_t k = 0; k < a.cols(); ++k) {
      double av = arow[k];
      if (av == 0.0) continue;
      const double* brow = b.RowPtr(k);
      for (int64_t j = 0; j < b.cols(); ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Result<DenseMatrix> MatMulTransA(const DenseMatrix& a, const DenseMatrix& b) {
  HATEN2_RETURN_IF_ERROR(CheckMulShapes(b, a.rows(), "MatMulTransA"));
  DenseMatrix c(a.cols(), b.cols());
  for (int64_t k = 0; k < a.rows(); ++k) {
    const double* arow = a.RowPtr(k);
    const double* brow = b.RowPtr(k);
    for (int64_t i = 0; i < a.cols(); ++i) {
      double av = arow[i];
      if (av == 0.0) continue;
      double* crow = c.RowPtr(i);
      for (int64_t j = 0; j < b.cols(); ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Result<QrResult> QrDecompose(const DenseMatrix& a) {
  const int64_t m = a.rows();
  const int64_t n = a.cols();
  if (m < n) {
    return Status::InvalidArgument(
        "QrDecompose requires rows >= cols (thin QR)");
  }
  if (n == 0) {
    return Status::InvalidArgument("QrDecompose on an empty matrix");
  }
  // Work on a copy; accumulate Householder vectors in-place below the
  // diagonal, R on and above it.
  DenseMatrix work = a;
  std::vector<double> betas(static_cast<size_t>(n), 0.0);
  std::vector<double> v0s(static_cast<size_t>(n), 0.0);
  for (int64_t k = 0; k < n; ++k) {
    // Householder vector for column k, rows k..m-1.
    double norm = 0.0;
    for (int64_t i = k; i < m; ++i) norm += work(i, k) * work(i, k);
    norm = std::sqrt(norm);
    if (norm == 0.0) {
      betas[static_cast<size_t>(k)] = 0.0;
      continue;
    }
    double alpha = work(k, k) >= 0 ? -norm : norm;
    double v0 = work(k, k) - alpha;
    // v = (v0, work(k+1..m-1, k)); beta = 2 / (vᵀv)
    double vtv = v0 * v0;
    for (int64_t i = k + 1; i < m; ++i) vtv += work(i, k) * work(i, k);
    if (vtv == 0.0) {
      betas[static_cast<size_t>(k)] = 0.0;
      work(k, k) = alpha;
      continue;
    }
    double beta = 2.0 / vtv;
    // Apply H = I - beta v vᵀ to the trailing columns.
    for (int64_t j = k + 1; j < n; ++j) {
      double dot = v0 * work(k, j);
      for (int64_t i = k + 1; i < m; ++i) dot += work(i, k) * work(i, j);
      dot *= beta;
      work(k, j) -= dot * v0;
      for (int64_t i = k + 1; i < m; ++i) work(i, j) -= dot * work(i, k);
    }
    work(k, k) = alpha;
    // Rows k+1..m-1 of column k already hold the tail of v; v0 and beta are
    // kept in side arrays for the Q accumulation below.
    betas[static_cast<size_t>(k)] = beta;
    v0s[static_cast<size_t>(k)] = v0;
  }
  // Build Q by applying the Householder reflectors to the first n columns of
  // the identity, in reverse order.
  DenseMatrix q(m, n);
  for (int64_t j = 0; j < n; ++j) q(j, j) = 1.0;
  for (int64_t k = n - 1; k >= 0; --k) {
    double beta = betas[static_cast<size_t>(k)];
    if (beta == 0.0) continue;
    double v0 = v0s[static_cast<size_t>(k)];
    for (int64_t j = 0; j < n; ++j) {
      double dot = v0 * q(k, j);
      for (int64_t i = k + 1; i < m; ++i) dot += work(i, k) * q(i, j);
      dot *= beta;
      q(k, j) -= dot * v0;
      for (int64_t i = k + 1; i < m; ++i) q(i, j) -= dot * work(i, k);
    }
  }
  DenseMatrix r(n, n);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i; j < n; ++j) r(i, j) = work(i, j);
  }
  return QrResult{std::move(q), std::move(r)};
}

Result<EigResult> SymmetricEigen(const DenseMatrix& a, int max_sweeps,
                                 double tol) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("SymmetricEigen requires a square matrix");
  }
  const int64_t n = a.rows();
  if (n == 0) {
    return Status::InvalidArgument("SymmetricEigen on an empty matrix");
  }
  // Symmetry check (cheap and catches caller bugs early).
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i + 1; j < n; ++j) {
      double scale = std::max({std::fabs(a(i, j)), std::fabs(a(j, i)), 1.0});
      if (std::fabs(a(i, j) - a(j, i)) > 1e-8 * scale) {
        return Status::InvalidArgument(
            "SymmetricEigen: matrix is not symmetric");
      }
    }
  }
  DenseMatrix w = a;
  DenseMatrix v = DenseMatrix::Identity(n);
  double frob = w.FrobeniusNorm();
  if (frob == 0.0) frob = 1.0;
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = i + 1; j < n; ++j) off += w(i, j) * w(i, j);
    }
    if (std::sqrt(2.0 * off) <= tol * frob) break;
    for (int64_t p = 0; p < n - 1; ++p) {
      for (int64_t q = p + 1; q < n; ++q) {
        double apq = w(p, q);
        if (std::fabs(apq) <= 1e-300) continue;
        double app = w(p, p);
        double aqq = w(q, q);
        double theta = (aqq - app) / (2.0 * apq);
        double t = (theta >= 0 ? 1.0 : -1.0) /
                   (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        double c = 1.0 / std::sqrt(t * t + 1.0);
        double s = t * c;
        // Rotate rows/columns p and q of w.
        for (int64_t k = 0; k < n; ++k) {
          double wkp = w(k, p);
          double wkq = w(k, q);
          w(k, p) = c * wkp - s * wkq;
          w(k, q) = s * wkp + c * wkq;
        }
        for (int64_t k = 0; k < n; ++k) {
          double wpk = w(p, k);
          double wqk = w(q, k);
          w(p, k) = c * wpk - s * wqk;
          w(q, k) = s * wpk + c * wqk;
        }
        for (int64_t k = 0; k < n; ++k) {
          double vkp = v(k, p);
          double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }
  // Sort eigenpairs by descending eigenvalue.
  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> diag(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) diag[static_cast<size_t>(i)] = w(i, i);
  std::sort(order.begin(), order.end(), [&diag](int64_t x, int64_t y) {
    return diag[static_cast<size_t>(x)] > diag[static_cast<size_t>(y)];
  });
  EigResult out;
  out.eigenvalues.resize(static_cast<size_t>(n));
  out.eigenvectors = DenseMatrix(n, n);
  for (int64_t j = 0; j < n; ++j) {
    int64_t src = order[static_cast<size_t>(j)];
    out.eigenvalues[static_cast<size_t>(j)] = diag[static_cast<size_t>(src)];
    for (int64_t i = 0; i < n; ++i) out.eigenvectors(i, j) = v(i, src);
  }
  return out;
}

Result<SvdResult> Svd(const DenseMatrix& a) {
  if (a.rows() == 0 || a.cols() == 0) {
    return Status::InvalidArgument("Svd on an empty matrix");
  }
  if (a.rows() < a.cols()) {
    // Recurse on the transpose and swap factors.
    HATEN2_ASSIGN_OR_RETURN(SvdResult t, Svd(a.Transposed()));
    return SvdResult{std::move(t.v), std::move(t.singular), std::move(t.u)};
  }
  const int64_t n = a.cols();
  DenseMatrix gram = Gram(a);
  HATEN2_ASSIGN_OR_RETURN(EigResult eig, SymmetricEigen(gram));
  SvdResult out;
  out.singular.resize(static_cast<size_t>(n));
  out.v = DenseMatrix(n, n);
  for (int64_t j = 0; j < n; ++j) {
    double ev = std::max(eig.eigenvalues[static_cast<size_t>(j)], 0.0);
    out.singular[static_cast<size_t>(j)] = std::sqrt(ev);
    for (int64_t i = 0; i < n; ++i) {
      out.v(i, j) = eig.eigenvectors(i, j);
    }
  }
  // u_j = a v_j / s_j for significant singular values; zero otherwise.
  double smax = out.singular.empty() ? 0.0 : out.singular[0];
  double cutoff = smax * 1e-13;
  out.u = DenseMatrix(a.rows(), n);
  for (int64_t j = 0; j < n; ++j) {
    double s = out.singular[static_cast<size_t>(j)];
    if (s <= cutoff) continue;
    for (int64_t i = 0; i < a.rows(); ++i) {
      double dot = 0.0;
      const double* arow = a.RowPtr(i);
      for (int64_t k = 0; k < n; ++k) dot += arow[k] * out.v(k, j);
      out.u(i, j) = dot / s;
    }
  }
  return out;
}

Result<DenseMatrix> PseudoInverse(const DenseMatrix& a, double rtol) {
  HATEN2_ASSIGN_OR_RETURN(SvdResult svd, Svd(a));
  double smax = 0.0;
  for (double s : svd.singular) smax = std::max(smax, s);
  double cutoff = smax * rtol;
  // pinv = V diag(1/s) Uᵀ, dropping singular values below the cutoff.
  DenseMatrix pinv(a.cols(), a.rows());
  const int64_t k = static_cast<int64_t>(svd.singular.size());
  for (int64_t j = 0; j < k; ++j) {
    double s = svd.singular[static_cast<size_t>(j)];
    if (s <= cutoff || s == 0.0) continue;
    double inv = 1.0 / s;
    for (int64_t r = 0; r < a.cols(); ++r) {
      double vr = svd.v(r, j) * inv;
      if (vr == 0.0) continue;
      double* prow = pinv.RowPtr(r);
      for (int64_t c = 0; c < a.rows(); ++c) {
        prow[c] += vr * svd.u(c, j);
      }
    }
  }
  return pinv;
}

Result<DenseMatrix> LeadingLeftSingularVectors(const DenseMatrix& a,
                                               int64_t count) {
  if (count <= 0) {
    return Status::InvalidArgument("count must be positive");
  }
  if (count > a.rows()) {
    return Status::InvalidArgument(StrFormat(
        "cannot extract %lld orthonormal columns from %lld-row matrix",
        (long long)count, (long long)a.rows()));
  }
  HATEN2_ASSIGN_OR_RETURN(SvdResult svd, Svd(a));
  double smax = svd.singular.empty() ? 0.0 : svd.singular[0];
  // The Gram trick loses half the precision: eigenvalues of aᵀa carry
  // ~1e-16 relative noise, i.e. ~1e-8 in singular-value space. A tighter
  // cutoff would admit junk directions u = a·v/s with near-null v.
  double cutoff = smax * 1e-7;
  DenseMatrix out(a.rows(), count);
  int64_t have = std::min<int64_t>(count,
                                   static_cast<int64_t>(svd.singular.size()));
  int64_t valid = 0;
  for (int64_t j = 0; j < have; ++j) {
    if (svd.singular[static_cast<size_t>(j)] <= cutoff) break;
    // Re-normalize: u from the Gram trick can drift off unit length for
    // small singular values.
    double norm = 0.0;
    for (int64_t i = 0; i < a.rows(); ++i) norm += svd.u(i, j) * svd.u(i, j);
    norm = std::sqrt(norm);
    if (norm < 0.5 || norm > 2.0) break;  // numerically unreliable direction
    for (int64_t i = 0; i < a.rows(); ++i) out(i, j) = svd.u(i, j) / norm;
    ++valid;
  }
  // Rank-deficient input: complete the basis with orthonormalized canonical
  // vectors so the factor matrix stays orthonormal (dead Tucker components).
  int64_t next_basis = 0;
  for (int64_t j = valid; j < count; ++j) {
    bool placed = false;
    while (next_basis < a.rows() && !placed) {
      std::vector<double> cand(static_cast<size_t>(a.rows()), 0.0);
      cand[static_cast<size_t>(next_basis)] = 1.0;
      ++next_basis;
      // Gram-Schmidt against columns 0..j-1.
      for (int64_t c = 0; c < j; ++c) {
        double dot = 0.0;
        for (int64_t i = 0; i < a.rows(); ++i) {
          dot += cand[static_cast<size_t>(i)] * out(i, c);
        }
        for (int64_t i = 0; i < a.rows(); ++i) {
          cand[static_cast<size_t>(i)] -= dot * out(i, c);
        }
      }
      double norm = 0.0;
      for (double v : cand) norm += v * v;
      norm = std::sqrt(norm);
      if (norm > 1e-8) {
        for (int64_t i = 0; i < a.rows(); ++i) {
          out(i, j) = cand[static_cast<size_t>(i)] / norm;
        }
        placed = true;
      }
    }
    if (!placed) {
      return Status::Internal(
          "failed to complete an orthonormal basis (should be impossible "
          "for count <= rows)");
    }
  }
  return out;
}

void NormalizeColumns(DenseMatrix* m, std::vector<double>* norms) {
  // Row-major passes; each column's sum runs over rows in order, so the
  // result matches a column-by-column loop bit for bit.
  const int64_t cols = m->cols();
  norms->assign(static_cast<size_t>(cols), 0.0);
  double* s = norms->data();
  for (int64_t i = 0; i < m->rows(); ++i) {
    const double* row = m->RowPtr(i);
    for (int64_t j = 0; j < cols; ++j) s[j] += row[j] * row[j];
  }
  for (int64_t j = 0; j < cols; ++j) s[j] = std::sqrt(s[j]);
  for (int64_t i = 0; i < m->rows(); ++i) {
    double* row = m->RowPtr(i);
    for (int64_t j = 0; j < cols; ++j) {
      if (s[j] > 0.0) row[j] /= s[j];
    }
  }
}

Result<DenseMatrix> SolveRightPinv(const DenseMatrix& b,
                                   const DenseMatrix& a) {
  HATEN2_ASSIGN_OR_RETURN(DenseMatrix pinv, PseudoInverse(a));
  return MatMul(b, pinv);
}

Result<double> RelativeError(const DenseMatrix& a, const DenseMatrix& b) {
  if (!a.SameShape(b)) {
    return Status::InvalidArgument("RelativeError shape mismatch");
  }
  double num = 0.0;
  double den = 0.0;
  for (size_t i = 0; i < a.data().size(); ++i) {
    double d = a.data()[i] - b.data()[i];
    num += d * d;
    den += a.data()[i] * a.data()[i];
  }
  if (den == 0.0) return num == 0.0 ? 0.0 : 1.0;
  return std::sqrt(num / den);
}

bool HasOrthonormalColumns(const DenseMatrix& a, double tol) {
  DenseMatrix g = Gram(a);
  for (int64_t i = 0; i < g.rows(); ++i) {
    for (int64_t j = 0; j < g.cols(); ++j) {
      double want = (i == j) ? 1.0 : 0.0;
      if (std::fabs(g(i, j) - want) > tol) return false;
    }
  }
  return true;
}

}  // namespace haten2
