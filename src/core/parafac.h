#ifndef HATEN2_CORE_PARAFAC_H_
#define HATEN2_CORE_PARAFAC_H_

#include "core/checkpoint.h"
#include "core/contract.h"
#include "core/variant.h"
#include "mapreduce/engine.h"
#include "tensor/models.h"
#include "tensor/sparse_tensor.h"
#include "util/result.h"

namespace haten2 {

/// Options shared by the HaTen2 decomposition drivers.
struct Haten2Options {
  /// Which HaTen2 variant evaluates the bottleneck operations.
  Variant variant = Variant::kDri;

  /// Maximum ALS (outer) iterations (T in Algorithm 1).
  int max_iterations = 20;

  /// Convergence threshold: PARAFAC stops when the fit changes by less than
  /// this between iterations; Tucker when ||G|| / ||X|| does.
  double tolerance = 1e-6;

  /// Seed for factor initialization.
  uint64_t seed = 17;

  /// Extension (paper Section VI, future work): nonnegative PARAFAC via
  /// Lee-Seung multiplicative updates instead of the unconstrained
  /// least-squares update. Factors stay entrywise >= 0.
  bool nonnegative = false;

  /// Compute the fit after every iteration. It is derived from the sweep's
  /// Grams and last-mode MTTKRP, so it costs O(I_N·R + N·R²) and no pass
  /// over X.
  bool compute_fit = true;

  /// Optional warm starts (checkpoint/resume): when non-null, the matching
  /// driver initializes from this model instead of randomly. The model must
  /// match the tensor's shape and the requested rank/core size. Resuming a
  /// run from its own checkpoint continues the exact same iterate sequence
  /// (ALS state is fully captured by the factors). Not owned.
  const KruskalModel* initial_kruskal = nullptr;
  const TuckerModel* initial_tucker = nullptr;

  /// Optional fault tolerance (core/checkpoint.h). With `checkpoint` set,
  /// the driver writes an atomic checkpoint (factors + λ/core + iteration
  /// counter + fit history + convergence state + config fingerprint) every
  /// checkpoint->every_n_iterations iterations. With `resume_from` set, the
  /// driver restores that state and continues the exact iterate sequence —
  /// iteration numbering, histories, traces, and the convergence test all
  /// pick up where the checkpoint left off (unlike the initial_* warm
  /// starts above, which begin a fresh run from the given factors). The
  /// checkpoint's fingerprint must match the current run (method, variant,
  /// seed, tolerance, rank/core dims, tensor shape+nnz) or the driver
  /// refuses with kFailedPrecondition. Not owned.
  const CheckpointOptions* checkpoint = nullptr;
  const LoadedCheckpoint* resume_from = nullptr;

  /// Optional per-iteration observability: when non-null, the driver
  /// appends one IterationStats per ALS iteration (fit / λ / ||G||, wall
  /// time, and the engine jobs the iteration ran). An iteration that dies
  /// mid-flight (o.o.m.) is still recorded with the jobs that completed,
  /// so post-mortems of the paper's failure cases keep their numbers.
  /// Serialized by stats_json.h. Not owned.
  DecompositionTrace* trace = nullptr;

  /// Optional caller-owned ContractCache shared across decompositions
  /// (incremental refit keeps one per ingest session and patches it with
  /// each epoch delta — see ContractCache::ApplyDelta). When null the
  /// harness uses a private per-decomposition cache. Not owned.
  ContractCache* contract_cache = nullptr;
};

/// \brief HaTen2-PARAFAC (Algorithm 1 driven by the MapReduce bottleneck op).
///
/// Each factor update evaluates Y ← X₍ₙ₎ (⊙_{m≠n} A⁽ᵐ⁾) through
/// MultiModeContract with MergeKind::kPairwise and the configured variant,
/// then solves the small least-squares system
/// A⁽ⁿ⁾ ← Y · (∗_{m≠n} A⁽ᵐ⁾ᵀA⁽ᵐ⁾)† on the driver (the paper does the same:
/// only the MTTKRP is distributed). Supports 3- and 4-way tensors (the
/// MapReduce path's order limit).
///
/// Returns kResourceExhausted when the variant's intermediate data exceeds
/// the engine's shuffle-memory budget ("o.o.m.").
Result<KruskalModel> Haten2ParafacAls(Engine* engine, const SparseTensor& x,
                                      int64_t rank,
                                      const Haten2Options& options = {});

}  // namespace haten2

#endif  // HATEN2_CORE_PARAFAC_H_
