#include "util/random.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace haten2 {

namespace {

// Enough for a generator that interleaves subject, object and relation
// popularity, with room to spare.
constexpr size_t kMaxZipfTables = 4;

}  // namespace

uint64_t Rng::Zipf(uint64_t n, double s) {
  if (n == 0) return 0;
  const ZipfTable* table = nullptr;
  for (const ZipfTable& t : zipf_tables_) {
    if (t.n == n && t.s == s) table = &t;
  }
  if (table == nullptr) {
    if (zipf_tables_.size() == kMaxZipfTables) {
      zipf_tables_.erase(zipf_tables_.begin());
    }
    std::vector<double> cdf(n);
    double sum = 0.0;
    for (uint64_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf[k] = sum;
    }
    for (uint64_t k = 0; k < n; ++k) cdf[k] /= sum;
    zipf_tables_.push_back(ZipfTable{n, s, std::move(cdf)});
    table = &zipf_tables_.back();
  }
  double u = Uniform();
  auto it = std::lower_bound(table->cdf.begin(), table->cdf.end(), u);
  if (it == table->cdf.end()) return n - 1;
  return static_cast<uint64_t>(it - table->cdf.begin());
}

}  // namespace haten2
