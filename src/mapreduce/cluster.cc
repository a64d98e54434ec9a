#include "mapreduce/cluster.h"

#include <cmath>

#include "util/string_util.h"

namespace haten2 {

namespace {

bool FiniteNonNegative(double v) { return std::isfinite(v) && v >= 0.0; }
bool FinitePositive(double v) { return std::isfinite(v) && v > 0.0; }

Status BadField(const char* field, const char* requirement) {
  return Status::InvalidArgument(
      StrFormat("ClusterConfig: %s must be %s", field, requirement));
}

}  // namespace

Status ClusterConfig::Validate() const {
  if (num_machines < 1) return BadField("num_machines", ">= 1");
  if (map_slots_per_machine < 1) {
    return BadField("map_slots_per_machine", ">= 1");
  }
  if (reduce_slots_per_machine < 1) {
    return BadField("reduce_slots_per_machine", ">= 1");
  }
  if (num_threads < 1) return BadField("num_threads", ">= 1");
  if (max_concurrent_jobs < 1) return BadField("max_concurrent_jobs", ">= 1");
  if (num_map_tasks < 0) return BadField("num_map_tasks", ">= 0");
  if (num_reduce_tasks < 0) return BadField("num_reduce_tasks", ">= 0");
  if (!FiniteNonNegative(job_startup_seconds)) {
    return BadField("job_startup_seconds", "finite and >= 0");
  }
  if (!FiniteNonNegative(map_seconds_per_record)) {
    return BadField("map_seconds_per_record", "finite and >= 0");
  }
  if (!FiniteNonNegative(reduce_seconds_per_record)) {
    return BadField("reduce_seconds_per_record", "finite and >= 0");
  }
  if (!FinitePositive(network_bytes_per_second)) {
    return BadField("network_bytes_per_second", "finite and > 0");
  }
  if (!FinitePositive(disk_bytes_per_second)) {
    return BadField("disk_bytes_per_second", "finite and > 0");
  }
  if (!(task_failure_probability >= 0.0 && task_failure_probability <= 1.0)) {
    return BadField("task_failure_probability", "in [0, 1]");
  }
  if (max_task_attempts < 1) return BadField("max_task_attempts", ">= 1");
  if (contraction != "dataflow" && contraction != "incore") {
    return Status::InvalidArgument(
        StrFormat("ClusterConfig: contraction must be \"dataflow\" or "
                  "\"incore\", got \"%s\"",
                  contraction.c_str()));
  }
  return Status::OK();
}

}  // namespace haten2
