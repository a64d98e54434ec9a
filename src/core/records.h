#ifndef HATEN2_CORE_RECORDS_H_
#define HATEN2_CORE_RECORDS_H_

#include <array>
#include <compare>
#include <cstdint>

#include "mapreduce/hash.h"

namespace haten2 {

/// Maximum tensor order supported by the distributed (MapReduce) code paths.
/// Covers the paper's 3-way evaluation, its motivating 4-way example
/// (source-ip, target-ip, port, timestamp), and higher-order use up to
/// 6-way. Intermediate records carry a fixed-size coordinate of this width,
/// so raising the limit costs shuffle bytes for every order; the
/// single-machine baseline has no limit at all.
inline constexpr int kMaxMrOrder = 6;

/// Fixed-size coordinate tuple for intermediate records, ordered
/// lexicographically. Unused trailing slots are set to -1 so equality,
/// ordering and hashing are order-independent.
struct Coord {
  std::array<int64_t, kMaxMrOrder> c;

  static Coord FromIndex(const int64_t* idx, int order) {
    Coord out;
    out.c.fill(-1);
    for (int m = 0; m < order; ++m) out.c[static_cast<size_t>(m)] = idx[m];
    return out;
  }

  friend auto operator<=>(const Coord& a, const Coord& b) = default;
};

template <>
struct ShuffleHash<Coord> {
  uint64_t operator()(const Coord& v) const {
    uint64_t seed = 0x7a7e17a7ULL;
    for (int64_t x : v.c) {
      seed = HashCombine(seed, static_cast<uint64_t>(x));
    }
    return seed;
  }
};

/// Output record of an n-mode (vector or matrix) Hadamard product job:
/// one scaled tensor entry per (original coordinate, factor column).
/// `stream` tags which contracted mode produced it, so the IMHP job can emit
/// every stream into one shuffle (Section III-B4, "integrating products for
/// different factor matrices").
struct HadamardRecord {
  Coord coord;
  int32_t stream;  ///< position of the contracted mode among contracted modes
  int32_t col;     ///< factor column index (q / r)
  double value;

  friend bool operator==(const HadamardRecord& a,
                         const HadamardRecord& b) = default;
};

/// Plain (coordinate, value) record used between the chained jobs of the
/// Naive and DNN variants.
struct TensorRecord {
  Coord coord;
  double value;

  friend bool operator==(const TensorRecord& a,
                         const TensorRecord& b) = default;
};

}  // namespace haten2

#endif  // HATEN2_CORE_RECORDS_H_
