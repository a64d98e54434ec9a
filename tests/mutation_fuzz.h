#ifndef HATEN2_TESTS_MUTATION_FUZZ_H_
#define HATEN2_TESTS_MUTATION_FUZZ_H_

// Seeded mutation fuzzing for the byte-level decoders: valid encodings are
// corrupted by bit flips, truncations and 8-byte field overwrites, and
// every corrupted input must be rejected with a Status or decode to a
// valid object — never crash, throw, or allocate from an unchecked count.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "tensor/binary_codec.h"
#include "util/random.h"

namespace haten2 {
namespace testing {

/// How many mutated inputs a decoder accepted and rejected.
struct FuzzCounts {
  int accepted = 0;
  int rejected = 0;
};

/// Returns one mutation of `bytes`, of kind `c % 4`:
///   0: one to three bit flips anywhere;
///   1: truncation to a random shorter length;
///   2, 3: one 8-byte-aligned word overwritten — half the time with an edge
///         value (0, 1, 2, 2^32, 2^40, 2^63, UINT64_MAX), else a random
///         word. Counts, lengths and dims are 8-byte fields at aligned
///         offsets in the formats fuzzed here.
inline std::string MutateBytes(std::string bytes, int c, Rng* rng) {
  static constexpr uint64_t kEdgeValues[] = {
      0,
      1,
      2,
      uint64_t{1} << 32,
      uint64_t{1} << 40,
      uint64_t{1} << 63,
      std::numeric_limits<uint64_t>::max()};
  if (bytes.empty()) return bytes;
  switch (c % 4) {
    case 0: {
      const int flips = 1 + static_cast<int>(rng->UniformInt(uint64_t{3}));
      for (int f = 0; f < flips; ++f) {
        const uint64_t bit = rng->UniformInt(uint64_t{bytes.size() * 8});
        bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
      }
      break;
    }
    case 1:
      bytes.resize(rng->UniformInt(uint64_t{bytes.size()}));
      break;
    default: {
      if (bytes.size() < 8) break;
      const size_t offset = 8 * rng->UniformInt(uint64_t{bytes.size() / 8});
      const uint64_t value =
          rng->UniformInt(uint64_t{2}) == 0
              ? kEdgeValues[rng->UniformInt(uint64_t{std::size(kEdgeValues)})]
              : rng->engine()();
      std::memcpy(bytes.data() + offset, &value, sizeof(value));
      break;
    }
  }
  return bytes;
}

/// Runs `cases` seeded mutations (MutateBytes) of randomly chosen `seeds`
/// through `decode(c, bytes)`, which returns true when the decoder accepted
/// the bytes and false when it rejected them, and checks with gtest
/// assertions whatever else the decoder must guarantee. Stops at the first
/// case that fails an assertion.
template <typename DecodeFn>
FuzzCounts FuzzMutations(const std::vector<std::string>& seeds, int cases,
                         uint64_t rng_seed, DecodeFn&& decode) {
  Rng rng(rng_seed);
  FuzzCounts counts;
  for (int c = 0; c < cases; ++c) {
    const std::string& seed = seeds[rng.UniformInt(uint64_t{seeds.size()})];
    if (decode(c, MutateBytes(seed, c, &rng))) {
      ++counts.accepted;
    } else {
      ++counts.rejected;
    }
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "fuzz case " << c;
      break;
    }
  }
  return counts;
}

/// Writes `bytes` to `path`, replacing the file.
inline void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The whole contents of `path`.
inline std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Recomputes the trailing body checksum of a file in the binary tensor or
/// delta-log format (tensor/binary_codec.h): a 16-byte magic/version/order
/// prefix, `order` 8-byte dims, one 8-byte count, the body, and the
/// checksum of the body in the last 8 bytes. A mutation then gets past the
/// integrity check and reaches the entry parser. Leaves `bytes` alone when
/// it is too short to hold that layout.
inline void ResealBinaryChecksum(std::string* bytes) {
  if (bytes->size() < 16) return;
  int32_t order = 0;
  std::memcpy(&order, bytes->data() + 12, sizeof(order));
  if (order < 1 || order > 64) return;
  const size_t body_begin = 24 + 8 * static_cast<size_t>(order);
  if (bytes->size() < body_begin + 8) return;
  const size_t body_end = bytes->size() - 8;
  const uint64_t checksum = internal::Checksum(bytes->data() + body_begin,
                                               body_end - body_begin);
  std::memcpy(bytes->data() + body_end, &checksum, sizeof(checksum));
}

}  // namespace testing
}  // namespace haten2

#endif  // HATEN2_TESTS_MUTATION_FUZZ_H_
