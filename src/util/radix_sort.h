#ifndef HATEN2_UTIL_RADIX_SORT_H_
#define HATEN2_UTIL_RADIX_SORT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace haten2 {

/// Order-preserving unsigned image of a signed 64-bit integer:
/// a < b exactly when OrderedBits(a) < OrderedBits(b).
inline uint64_t OrderedBits(int64_t v) {
  return static_cast<uint64_t>(v) ^ (uint64_t{1} << 63);
}

/// \brief Stable LSD radix sort of `items` by `key_of(item)`, an
/// order-preserving 64-bit image of the sort key.
///
/// Items with equal images keep their input order. One sweep counts all
/// eight 8-bit digits; a digit whose byte is equal across the input is
/// skipped, and each remaining digit is one stable scatter between `items`
/// and a scratch buffer of the same size. Keys that vary only in their low
/// bytes (indices, small enum tags) therefore take one or two passes.
template <typename T, typename KeyFn>
void StableRadixSort(std::vector<T>* items, KeyFn key_of) {
  const size_t n = items->size();
  if (n < 2) return;
  constexpr int kDigits = 8;
  std::array<std::array<size_t, 256>, kDigits> counts{};
  for (const T& item : *items) {
    const uint64_t key = key_of(item);
    for (int d = 0; d < kDigits; ++d) ++counts[d][(key >> (8 * d)) & 0xff];
  }
  std::vector<T> scratch;
  std::vector<T>* src = items;
  std::vector<T>* dst = &scratch;
  for (int d = 0; d < kDigits; ++d) {
    std::array<size_t, 256>& slot = counts[d];
    if (slot[(key_of(src->front()) >> (8 * d)) & 0xff] == n) continue;
    if (scratch.empty()) scratch.resize(n);
    size_t next = 0;
    for (size_t& c : slot) next += std::exchange(c, next);
    for (const T& item : *src) {
      (*dst)[slot[(key_of(item) >> (8 * d)) & 0xff]++] = item;
    }
    std::swap(src, dst);
  }
  if (src != items) items->swap(scratch);
}

}  // namespace haten2

#endif  // HATEN2_UTIL_RADIX_SORT_H_
