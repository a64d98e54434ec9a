#ifndef HATEN2_PERFBENCH_WORKLOADS_H_
#define HATEN2_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <limits>
#include <string>

#include "metrics.h"
#include "util/status.h"

namespace haten2 {
namespace perfbench {

/// parafac_incore, tucker_dataflow or refit_serve.
bool KnownWorkload(const std::string& workload);

/// File extension of the workload's input ("tns" text or "bin" binary).
std::string InputExtension(const std::string& workload);

/// Writes the workload's input tensor for `seed` to `path` (tiny: the
/// self-test size).
Status GenerateInput(const std::string& workload, bool tiny, uint64_t seed,
                     const std::string& path);

struct RunOptions {
  std::string workload;
  bool tiny = false;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string input;
  /// Where the traced run writes its Chrome trace-event JSON.
  std::string trace_out;
  /// Output values the parent commit produced for this seed, when pinned
  /// (NaN / -1 when unknown).
  double expect_fit = std::numeric_limits<double>::quiet_NaN();
  int64_t expect_records = -1;
};

/// Runs one workload: end-to-end metrics always, per-layer metrics (and the
/// trace file) when options.trace is set. Operations and output checks are
/// counted in `log`; a setup failure is returned as a Status.
Status RunWorkload(const RunOptions& options, RunLog* log, MetricMap* metrics);

}  // namespace perfbench
}  // namespace haten2

#endif  // HATEN2_PERFBENCH_WORKLOADS_H_
