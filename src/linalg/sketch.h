#ifndef HATEN2_LINALG_SKETCH_H_
#define HATEN2_LINALG_SKETCH_H_

#include <cstdint>

#include "tensor/dense_matrix.h"
#include "util/result.h"

namespace haten2 {

// Seeded Gaussian projection ("sketch") operators for the randomized Tucker
// range finder (the sketched sweeps of core/tucker.h). A sketch compresses
// the Q-column space of a factor matrix down to `sketch_size` columns
// before the contraction runs, so the bottleneck op shuffles and reduces
// s-wide blocks instead of ПQ-wide ones.
//
// Every entry of a sketch operator is a pure function of (seed, row, column)
// through the splitmix64 finalizer — no stateful generator, no global RNG.
// Two calls with the same (shape, seed) produce bit-identical matrices on
// any platform and in any call order, the same discipline the engine's
// failure injection follows. That is what makes sketched runs resumable: a
// checkpoint restart re-derives the exact operators instead of having to
// persist them.

/// Materializes the sketch operator Ω ∈ R^{in_dim × sketch_size} with
/// i.i.d. N(0, 1/s) entries (Johnson–Lindenstrauss). Deterministic in
/// (in_dim, sketch_size, seed). Both dims must be >= 1. The operators here
/// are tiny (in_dim = a core dimension), so materializing is cheaper than
/// streaming the implicit entries.
Result<DenseMatrix> SketchOperator(int64_t in_dim, int64_t sketch_size,
                                   uint64_t seed);

/// Applies the sketch to a factor: returns A·Ω (a.rows() × sketch_size)
/// with Ω = SketchOperator(a.cols(), sketch_size, seed). This is the
/// payload of the per-mode "Sketch[...]" plan nodes.
Result<DenseMatrix> ApplySketch(const DenseMatrix& a, int64_t sketch_size,
                                uint64_t seed);

/// The per-mode operator seed: mixes the run seed with the mode index so
/// each mode draws an independent operator while the whole family stays a
/// pure function of the run's --seed.
uint64_t SketchSeedForMode(uint64_t run_seed, int mode);

}  // namespace haten2

#endif  // HATEN2_LINALG_SKETCH_H_
