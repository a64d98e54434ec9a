#ifndef HATEN2_UTIL_RANDOM_H_
#define HATEN2_UTIL_RANDOM_H_

#include <cstdint>
#include <random>
#include <vector>

namespace haten2 {

/// \brief Deterministic random number generator used across the library.
///
/// All stochastic components (tensor generators, factor initialization,
/// sampling) take an Rng or a seed so experiments are exactly reproducible.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5eed5eedULL) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double Uniform() { return unit_(engine_); }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n) {
    return std::uniform_int_distribution<uint64_t>(0, n - 1)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Standard normal sample.
  double Normal() { return normal_(engine_); }

  /// Normal sample with the given mean and stddev.
  double Normal(double mean, double stddev) {
    return mean + stddev * Normal();
  }

  /// Returns true with probability p.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Samples from a Zipf distribution over {0, ..., n-1} with exponent s,
  /// by inverse-CDF over precomputed weights. Intended for modest n
  /// (entity-popularity modeling in workload generators). The CDFs of the
  /// last few distinct (n, s) pairs stay cached, so interleaving draws
  /// from several distributions does not rebuild a table per draw.
  uint64_t Zipf(uint64_t n, double s);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = UniformInt(static_cast<uint64_t>(i));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
  std::normal_distribution<double> normal_{0.0, 1.0};

  // Cached Zipf CDFs, most recently built last; regenerating a table per
  // call would make bulk sampling quadratic.
  struct ZipfTable {
    uint64_t n;
    double s;
    std::vector<double> cdf;
  };
  std::vector<ZipfTable> zipf_tables_;
};

}  // namespace haten2

#endif  // HATEN2_UTIL_RANDOM_H_
