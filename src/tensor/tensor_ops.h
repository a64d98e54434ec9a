#ifndef HATEN2_TENSOR_TENSOR_OPS_H_
#define HATEN2_TENSOR_TENSOR_OPS_H_

#include <vector>

#include "tensor/dense_matrix.h"
#include "tensor/dense_tensor.h"
#include "tensor/sparse_tensor.h"
#include "util/result.h"

namespace haten2 {

// Direct, single-machine reference implementations of the tensor algebra used
// by the paper (Table I symbols). These are the ground truth the MapReduce
// implementations in src/core/ are tested against, and the computational
// substrate of the Tensor-Toolbox baseline in src/baseline/.

/// n-mode vector product X x̄_n v: contracts mode `mode` with v (length
/// dim(mode)), producing an order-(N-1) sparse tensor.
Result<SparseTensor> Ttv(const SparseTensor& x, const std::vector<double>& v,
                         int mode);

/// n-mode matrix product X ×_n U with U ∈ R^{F × I_n}: replaces mode `mode`
/// by size F. The result is built as a sparse tensor; for a fully dense U it
/// holds ≈ nnz(X)·F entries before duplicate coordinates merge (Lemma 3).
Result<SparseTensor> Ttm(const SparseTensor& x, const DenseMatrix& u,
                         int mode);

/// Convenience: X ×_n Bᵀ where B ∈ R^{I_n × F} (the factor-matrix layout used
/// by the ALS algorithms; equals Ttm(x, B.Transposed(), mode)).
Result<SparseTensor> TtmTransposed(const SparseTensor& x,
                                   const DenseMatrix& b, int mode);

/// n-mode vector Hadamard product X ∗̄_n v (Definition 1): scales every entry
/// by v[i_n]; same shape, zeros dropped.
Result<SparseTensor> NModeVectorHadamard(const SparseTensor& x,
                                         const std::vector<double>& v,
                                         int mode);

/// n-mode matrix Hadamard product X ∗_n U (Definition 5) with U ∈ R^{Q×I_n}:
/// result has one extra trailing mode of size Q with
/// (X ∗_n U)(i_1..i_N, q) = X(i_1..i_N) · U(q, i_n).
Result<SparseTensor> NModeMatrixHadamard(const SparseTensor& x,
                                         const DenseMatrix& u, int mode);

/// Matricized-tensor-times-Khatri-Rao-product: returns
/// M = X_(mode) · (⊙_{m != mode, descending} factors[m]) ∈ R^{I_mode × R}.
/// All factor matrices must have R columns and rows matching dims.
Result<DenseMatrix> Mttkrp(const SparseTensor& x,
                           const std::vector<const DenseMatrix*>& factors,
                           int mode);

/// Khatri-Rao product A ⊙ B (column-wise Kronecker): rows(A)·rows(B) × R,
/// with (A ⊙ B)(i·rows(B)+j, r) = A(i,r)·B(j,r) — B's rows vary fastest,
/// matching the Kolda unfolding convention used by DenseTensor::Unfold.
Result<DenseMatrix> KhatriRao(const DenseMatrix& a, const DenseMatrix& b);

/// Kronecker product A ⊗ B.
DenseMatrix Kronecker(const DenseMatrix& a, const DenseMatrix& b);

/// Dense reconstruction of a Kruskal (PARAFAC) model:
/// sum_r lambda[r] · a_r ∘ b_r ∘ ... (any order >= 1). Test-scale only.
Result<DenseTensor> ReconstructKruskal(
    const std::vector<double>& lambda,
    const std::vector<const DenseMatrix*>& factors);

/// Dense reconstruction of a Tucker model G ×_1 A1 ×_2 A2 ... with
/// factors[m] ∈ R^{I_m × J_m}. Test-scale only.
Result<DenseTensor> ReconstructTucker(
    const DenseTensor& core, const std::vector<const DenseMatrix*>& factors);

/// Inner product <X, [[lambda; factors]]> computed in O(nnz · R), used for
/// the PARAFAC fit without materializing the reconstruction.
Result<double> InnerProductKruskal(
    const SparseTensor& x, const std::vector<double>& lambda,
    const std::vector<const DenseMatrix*>& factors);

/// Squared norm of a Kruskal model: sum_{r,s} λ_r λ_s ∏_m (A_mᵀA_m)_{rs}.
/// Takes each factor's Gram() and defers to KruskalNormSquaredFromGrams.
Result<double> KruskalNormSquared(
    const std::vector<double>& lambda,
    const std::vector<const DenseMatrix*>& factors);

/// The same sum from precomputed Grams (grams[m] = A_mᵀA_m, each R x R
/// with R = lambda.size()) — for ALS drivers, which already hold them.
Result<double> KruskalNormSquaredFromGrams(
    const std::vector<double>& lambda, const std::vector<DenseMatrix>& grams);

/// Mode-n matricization of a sparse tensor as an order-2 sparse tensor
/// (I_mode × prod of other dims), Kolda column ordering.
Result<SparseTensor> SparseUnfold(const SparseTensor& x, int mode);

}  // namespace haten2

#endif  // HATEN2_TENSOR_TENSOR_OPS_H_
