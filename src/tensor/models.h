#ifndef HATEN2_TENSOR_MODELS_H_
#define HATEN2_TENSOR_MODELS_H_

#include <vector>

#include "tensor/dense_matrix.h"
#include "tensor/dense_tensor.h"
#include "tensor/sparse_tensor.h"
#include "util/result.h"

namespace haten2 {

/// \brief Kruskal (PARAFAC/CP) model: X ≈ Σ_r λ_r a_r⁽¹⁾ ∘ ... ∘ a_r⁽ᴺ⁾ with
/// unit-norm factor columns and the norms folded into λ.
struct KruskalModel {
  std::vector<double> lambda;        ///< length R, non-negative
  std::vector<DenseMatrix> factors;  ///< N matrices, I_m x R

  /// Fit 1 - ||X - model|| / ||X|| at convergence (1 = exact).
  double fit = 0.0;
  int iterations = 0;
  std::vector<double> fit_history;  ///< fit after each ALS iteration

  int64_t rank() const {
    return factors.empty() ? 0 : factors[0].cols();
  }

  std::vector<const DenseMatrix*> FactorPtrs() const {
    std::vector<const DenseMatrix*> out;
    out.reserve(factors.size());
    for (const DenseMatrix& f : factors) out.push_back(&f);
    return out;
  }
};

/// \brief Tucker model: X ≈ G ×₁ A⁽¹⁾ ... ×ₙ A⁽ᴺ⁾ with orthonormal factor
/// columns.
struct TuckerModel {
  DenseTensor core;                  ///< J_1 x ... x J_N
  std::vector<DenseMatrix> factors;  ///< N matrices, I_m x J_m

  double fit = 0.0;
  int iterations = 0;
  /// ||G|| after each iteration; Tucker-ALS stops when it ceases to increase
  /// (Algorithm 2 line 10).
  std::vector<double> core_norm_history;

  std::vector<const DenseMatrix*> FactorPtrs() const {
    std::vector<const DenseMatrix*> out;
    out.reserve(factors.size());
    for (const DenseMatrix& f : factors) out.push_back(&f);
    return out;
  }
};

/// Fit of a Kruskal model against x:
/// 1 - sqrt(||X||² - 2<X, M> + ||M||²) / ||X||, computed in O(nnz·R + N·I·R²)
/// without materializing the reconstruction.
Result<double> KruskalFit(const SparseTensor& x, const KruskalModel& model);

/// KruskalFit's final step, from its three terms: ||X||² (x_sq, nonzero),
/// <X, M> and ||M||². A residual that cancels to a tiny negative value is
/// clamped to zero. ALS drivers that already hold the terms call this.
double KruskalFitFromTerms(double x_sq, double inner, double model_sq);

/// Fit of a Tucker model with orthonormal factors:
/// ||X - M||² = ||X||² - ||G||², so fit = 1 - sqrt(||X||² - ||G||²) / ||X||.
Result<double> TuckerFit(const SparseTensor& x, const TuckerModel& model);

}  // namespace haten2

#endif  // HATEN2_TENSOR_MODELS_H_
