#ifndef HATEN2_CORE_MISSING_VALUES_H_
#define HATEN2_CORE_MISSING_VALUES_H_

#include "core/parafac.h"
#include "mapreduce/engine.h"
#include "tensor/models.h"
#include "tensor/sparse_tensor.h"
#include "util/result.h"

namespace haten2 {

/// \brief PARAFAC with missing values — the first of the paper's stated
/// future directions (Section VI: "extending our framework to other
/// settings such as tensor decompositions with missing values").
///
/// The observed cells are given as a sparse tensor `x` plus a same-shaped
/// binary mask `observed` (1 where the cell was measured; cells outside the
/// mask are *unknown*, not zero). The solver is EM-ALS: each outer step
/// imputes the unobserved cells from the current model — which only ever
/// touches the observed pattern plus the model, keeping everything
/// sparse-shaped — and runs one ALS sweep of the standard HaTen2-PARAFAC
/// machinery on the completed tensor:
///
///   X̂ = x * observed + M(θ) * (1 - observed)   (restricted to the union
///                                               pattern actually needed)
///
/// Because the ALS sweep is the unmodified distributed bottleneck op, the
/// extension inherits every variant and all the cost behaviour of the base
/// method.
struct MissingValueOptions {
  /// Everything but max_iterations and tolerance, which the two EM fields
  /// below replace.
  Haten2Options base;
  /// Outer EM iterations, one ALS sweep each.
  int em_iterations = 10;
  /// Stop when the fit over *observed* cells changes less than this.
  double em_tolerance = 1e-7;
};

/// Result carries the model plus the fit restricted to observed cells
/// (model.fit and model.fit_history hold the same observed fit).
struct MissingValueModel {
  KruskalModel model;
  double observed_fit = 0.0;
  int em_iterations = 0;
  std::vector<double> observed_fit_history;
};

/// Requirements: `observed` is canonical, same dims as `x`, its values are
/// exactly 1.0, and every nonzero of `x` lies inside the mask.
Result<MissingValueModel> Haten2ParafacMissing(
    Engine* engine, const SparseTensor& x, const SparseTensor& observed,
    int64_t rank, const MissingValueOptions& options = {});

/// Fit of a Kruskal model evaluated only on the observed cells:
/// 1 - ||P_obs(X - M)|| / ||P_obs(X)||.
Result<double> ObservedFit(const SparseTensor& x,
                           const SparseTensor& observed,
                           const KruskalModel& model);

}  // namespace haten2

#endif  // HATEN2_CORE_MISSING_VALUES_H_
