#include "tensor/models.h"

#include <algorithm>
#include <cmath>

#include "tensor/tensor_ops.h"

namespace haten2 {

Result<double> KruskalFit(const SparseTensor& x, const KruskalModel& model) {
  double x_sq = x.SumSquares();
  if (x_sq == 0.0) {
    return Status::InvalidArgument("fit undefined for an all-zero tensor");
  }
  std::vector<const DenseMatrix*> factors = model.FactorPtrs();
  HATEN2_ASSIGN_OR_RETURN(double inner,
                          InnerProductKruskal(x, model.lambda, factors));
  HATEN2_ASSIGN_OR_RETURN(double model_sq,
                          KruskalNormSquared(model.lambda, factors));
  return KruskalFitFromTerms(x_sq, inner, model_sq);
}

double KruskalFitFromTerms(double x_sq, double inner, double model_sq) {
  double resid_sq = x_sq - 2.0 * inner + model_sq;
  // Guard tiny negative values from floating-point cancellation.
  resid_sq = std::max(resid_sq, 0.0);
  return 1.0 - std::sqrt(resid_sq / x_sq);
}

Result<double> TuckerFit(const SparseTensor& x, const TuckerModel& model) {
  double x_sq = x.SumSquares();
  if (x_sq == 0.0) {
    return Status::InvalidArgument("fit undefined for an all-zero tensor");
  }
  if (static_cast<int>(model.factors.size()) != x.order()) {
    return Status::InvalidArgument("model order does not match tensor");
  }
  double core_sq = 0.0;
  for (double v : model.core.data()) core_sq += v * v;
  double resid_sq = std::max(x_sq - core_sq, 0.0);
  return 1.0 - std::sqrt(resid_sq / x_sq);
}

}  // namespace haten2
