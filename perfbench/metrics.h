#ifndef HATEN2_PERFBENCH_METRICS_H_
#define HATEN2_PERFBENCH_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace haten2 {
namespace perfbench {

/// Median of `v` (mean of the two middle values for even sizes); 0 if empty.
double Median(std::vector<double> v);

/// Nearest-rank quantile, q in [0, 1]; 0 if empty. Infinite samples (failed
/// operations) sort last, so a failure counts as missing any limit.
double NearestRank(std::vector<double> v, double q);

/// The tail rule: the highest whole percentile P whose nearest-rank sample
/// still has at least `beyond` samples above it. With fewer than beyond + 1
/// samples no percentile qualifies and `valid` is false.
struct TailStat {
  bool valid = false;
  int percentile = 0;
  double value = 0.0;
};
TailStat Tail(std::vector<double> v, int beyond = 10);

/// Operation and check bookkeeping for one run.
class RunLog {
 public:
  /// Counts one attempted operation; returns `ok` for chaining.
  bool Op(bool ok);
  /// Records an output check; a failing check also counts as a failed
  /// operation and its message goes to stderr.
  bool Check(bool ok, const std::string& what);

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  bool correct() const { return correct_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool correct_ = true;
};

/// Metric name → value; units live in BENCHMARK.json.
using MetricMap = std::map<std::string, double>;

/// Renders the run result the driver script reads: correct / attempted /
/// failed plus the metric map.
std::string ResultJson(const RunLog& log, const MetricMap& metrics);

}  // namespace perfbench
}  // namespace haten2

#endif  // HATEN2_PERFBENCH_METRICS_H_
