#include "linalg/sketch.h"

#include <cmath>

#include "linalg/linalg.h"
#include "util/string_util.h"

namespace haten2 {

namespace {

/// splitmix64 finalizer (same constants as mapreduce/hash.h; duplicated so
/// linalg stays independent of the engine layer).
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform draw in (0, 1]: the top 53 bits as a double, nudged off zero so
/// the Box–Muller log never sees 0.
double ToUnitOpen(uint64_t h) {
  return (static_cast<double>(h >> 11) + 1.0) * 0x1.0p-53;
}

/// Per-entry hash: one well-mixed word per (seed, flattened index, salt).
uint64_t EntryHash(uint64_t seed, uint64_t index, uint64_t salt) {
  return Mix64(seed ^ Mix64(index * 1000003ULL + salt));
}

constexpr uint64_t kGaussianSalt = 0x5ce7c401ULL;
constexpr uint64_t kModeSeedSalt = 0x5ce7c404ULL;

}  // namespace

Result<DenseMatrix> SketchOperator(int64_t in_dim, int64_t sketch_size,
                                   uint64_t seed) {
  if (in_dim < 1) {
    return Status::InvalidArgument(
        StrFormat("sketch input dimension must be >= 1, got %lld",
                  (long long)in_dim));
  }
  if (sketch_size < 1) {
    return Status::InvalidArgument(StrFormat(
        "sketch_size must be >= 1, got %lld", (long long)sketch_size));
  }
  DenseMatrix omega(in_dim, sketch_size);
  // N(0, 1/s) entries via Box–Muller on two counter-hashed uniforms, so
  // the sketch E[ΩΩᵀ] = I/s · s = I preserves norms in expectation.
  const double scale = 1.0 / std::sqrt(static_cast<double>(sketch_size));
  for (int64_t q = 0; q < in_dim; ++q) {
    for (int64_t j = 0; j < sketch_size; ++j) {
      const uint64_t index =
          static_cast<uint64_t>(q) * static_cast<uint64_t>(sketch_size) +
          static_cast<uint64_t>(j);
      const double u1 = ToUnitOpen(EntryHash(seed, 2 * index, kGaussianSalt));
      const double u2 =
          ToUnitOpen(EntryHash(seed, 2 * index + 1, kGaussianSalt));
      const double z =
          std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
      omega(q, j) = z * scale;
    }
  }
  return omega;
}

Result<DenseMatrix> ApplySketch(const DenseMatrix& a, int64_t sketch_size,
                                uint64_t seed) {
  HATEN2_ASSIGN_OR_RETURN(DenseMatrix omega,
                          SketchOperator(a.cols(), sketch_size, seed));
  return MatMul(a, omega);
}

uint64_t SketchSeedForMode(uint64_t run_seed, int mode) {
  return Mix64(run_seed ^ Mix64(static_cast<uint64_t>(mode) * 1000003ULL +
                                kModeSeedSalt));
}

}  // namespace haten2
