#ifndef HATEN2_LINALG_LINALG_H_
#define HATEN2_LINALG_LINALG_H_

#include <vector>

#include "tensor/dense_matrix.h"
#include "util/result.h"

namespace haten2 {

// Dense linear-algebra kernels for the small matrices of the ALS algorithms
// (R x R Grams, I x R factors with small R). Everything is written for
// clarity and numerical robustness at these shapes — not for BLAS-scale
// performance, which the decompositions never need (R <= ~100 in the paper).

/// C = A · B. Shapes must be compatible.
Result<DenseMatrix> MatMul(const DenseMatrix& a, const DenseMatrix& b);

/// C = Aᵀ · B (avoids materializing the transpose).
Result<DenseMatrix> MatMulTransA(const DenseMatrix& a, const DenseMatrix& b);

/// Thin Householder QR of an m x n matrix with m >= n:
/// a = q · r with q m x n having orthonormal columns and r n x n upper
/// triangular.
struct QrResult {
  DenseMatrix q;
  DenseMatrix r;
};
Result<QrResult> QrDecompose(const DenseMatrix& a);

/// Symmetric eigendecomposition via the cyclic Jacobi method.
/// Returns eigenvalues in descending order with matching eigenvector columns.
struct EigResult {
  std::vector<double> eigenvalues;  // descending
  DenseMatrix eigenvectors;         // column j pairs with eigenvalues[j]
};
Result<EigResult> SymmetricEigen(const DenseMatrix& a,
                                 int max_sweeps = 64,
                                 double tol = 1e-12);

/// Thin singular value decomposition a = u · diag(s) · vᵀ.
/// For m >= n computed from the eigendecomposition of aᵀa (the Gram trick;
/// the only regime the decompositions use is very tall-thin or small square).
struct SvdResult {
  DenseMatrix u;                 // m x k
  std::vector<double> singular;  // descending, length k
  DenseMatrix v;                 // n x k
};
Result<SvdResult> Svd(const DenseMatrix& a);

/// Moore-Penrose pseudo-inverse via SVD with relative tolerance on singular
/// values (rank-deficient inputs are handled, which ALS requires: Gram
/// matrices of correlated factors go singular routinely).
Result<DenseMatrix> PseudoInverse(const DenseMatrix& a, double rtol = 1e-12);

/// `count` leading left singular vectors of a (columns of u). This is the
/// "P leading left singular vectors of Y_(1)" step of Tucker-ALS (Algorithm
/// 2, lines 4/6/8); computed with the Gram trick so only a
/// cols(a) x cols(a) eigenproblem is solved.
Result<DenseMatrix> LeadingLeftSingularVectors(const DenseMatrix& a,
                                               int64_t count);

/// Normalizes each column of m to unit 2-norm, storing the norms in *norms.
/// Zero columns get norm 0 and are left as zeros (ALS treats the component
/// as dead). This is the "normalize columns storing norms in λ" step of
/// PARAFAC-ALS.
void NormalizeColumns(DenseMatrix* m, std::vector<double>* norms);

/// Solves x · a = b for x given a square a (i.e. x = b · a⁻¹) using the
/// pseudo-inverse; the shape used by factor updates M · (gram)†.
Result<DenseMatrix> SolveRightPinv(const DenseMatrix& b, const DenseMatrix& a);

/// Relative reconstruction error ||a - b||_F / ||a||_F.
Result<double> RelativeError(const DenseMatrix& a, const DenseMatrix& b);

/// True when aᵀa is within `tol` of the identity (orthonormal columns).
bool HasOrthonormalColumns(const DenseMatrix& a, double tol = 1e-8);

}  // namespace haten2

#endif  // HATEN2_LINALG_LINALG_H_
