#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/json_writer.h"

namespace haten2 {
namespace perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double NearestRank(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

TailStat Tail(std::vector<double> v, int beyond) {
  TailStat t;
  const int64_t n = static_cast<int64_t>(v.size());
  for (int p = 100; p >= 1; --p) {
    // Nearest rank of percentile p, in integer arithmetic.
    const int64_t rank = (p * n + 99) / 100;
    if (rank >= 1 && n - rank >= beyond) {
      t.valid = true;
      t.percentile = p;
      std::sort(v.begin(), v.end());
      t.value = v[static_cast<size_t>(rank - 1)];
      return t;
    }
  }
  return t;
}

bool RunLog::Op(bool ok) {
  ++attempted_;
  if (!ok) ++failed_;
  return ok;
}

bool RunLog::Check(bool ok, const std::string& what) {
  Op(ok);
  if (!ok) {
    correct_ = false;
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
  return ok;
}

std::string ResultJson(const RunLog& log, const MetricMap& metrics) {
  JsonWriter w;
  w.BeginObject()
      .Key("correct").Value(log.correct())
      .Key("attempted").Value(log.attempted())
      .Key("failed").Value(log.failed())
      .Key("metrics").BeginObject();
  for (const auto& [name, value] : metrics) w.Key(name).Value(value);
  w.EndObject().EndObject();
  return w.str();
}

}  // namespace perfbench
}  // namespace haten2
