#include "mapreduce/stats.h"

#include <algorithm>

#include "util/string_util.h"

namespace haten2 {

TaskSkew SkewOf(std::vector<int64_t> counts) {
  TaskSkew skew;
  skew.tasks = static_cast<int64_t>(counts.size());
  if (counts.empty()) return skew;
  std::sort(counts.begin(), counts.end());
  skew.min_records = counts.front();
  skew.max_records = counts.back();
  skew.p50_records = counts[counts.size() / 2];
  return skew;
}

int64_t PipelineStats::MaxIntermediateRecords() const {
  int64_t m = 0;
  for (const JobStats& j : jobs) m = std::max(m, j.map_output_records);
  return m;
}

uint64_t PipelineStats::MaxIntermediateBytes() const {
  uint64_t m = 0;
  for (const JobStats& j : jobs) m = std::max(m, j.map_output_bytes);
  return m;
}

int64_t PipelineStats::TotalIntermediateRecords() const {
  int64_t t = 0;
  for (const JobStats& j : jobs) t += j.map_output_records;
  return t;
}

uint64_t PipelineStats::TotalIntermediateBytes() const {
  uint64_t t = 0;
  for (const JobStats& j : jobs) t += j.map_output_bytes;
  return t;
}

int64_t PipelineStats::TotalMapTaskRetries() const {
  int64_t t = 0;
  for (const JobStats& j : jobs) t += j.map_task_retries;
  return t;
}

int64_t PipelineStats::NumFailedJobs() const {
  int64_t t = 0;
  for (const JobStats& j : jobs) t += j.failed() ? 1 : 0;
  return t;
}

double PipelineStats::TotalWallSeconds() const {
  double t = 0.0;
  for (const JobStats& j : jobs) t += j.wall_seconds;
  return t;
}

int PipelineStats::MaxScheduledConcurrency() const {
  int m = 0;
  for (const PlanStats& p : plans) {
    m = std::max(m, p.max_observed_concurrency);
  }
  return m;
}

double PipelineStats::TotalCriticalPathSeconds() const {
  double t = 0.0;
  for (const PlanStats& p : plans) t += p.critical_path_seconds;
  return t;
}

double PipelineStats::TotalPlanNodeSeconds() const {
  double t = 0.0;
  for (const PlanStats& p : plans) t += p.total_node_seconds;
  return t;
}

int64_t PipelineStats::IncoreNodes() const {
  int64_t t = 0;
  for (const PlanStats& p : plans) {
    for (const PlanNodeStats& n : p.nodes) {
      if (n.contraction_strategy == "incore") ++t;
    }
  }
  return t;
}

int64_t PipelineStats::DataflowNodes() const {
  int64_t t = 0;
  for (const PlanStats& p : plans) {
    for (const PlanNodeStats& n : p.nodes) {
      if (n.contraction_strategy == "dataflow") ++t;
    }
  }
  return t;
}

std::string PipelineStats::ToString() const {
  std::string out = StrFormat(
      "pipeline: %lld jobs, max intermediate %s records (%s), wall %s\n",
      (long long)NumJobs(), HumanCount(MaxIntermediateRecords()).c_str(),
      HumanBytes(MaxIntermediateBytes()).c_str(),
      HumanSeconds(TotalWallSeconds()).c_str());
  for (const JobStats& j : jobs) {
    out += StrFormat(
        "  [%s] in=%s shuffle=%s (%s) groups=%s out=%s wall=%s\n",
        j.name.c_str(), HumanCount(j.map_input_records).c_str(),
        HumanCount(j.map_output_records).c_str(),
        HumanBytes(j.map_output_bytes).c_str(),
        HumanCount(j.reduce_input_groups).c_str(),
        HumanCount(j.reduce_output_records).c_str(),
        HumanSeconds(j.wall_seconds).c_str());
    out += StrFormat(
        "    phases: map=%s combine=%s shuffle=%s reduce=%s",
        HumanSeconds(j.phases.map_seconds).c_str(),
        HumanSeconds(j.phases.combine_seconds).c_str(),
        HumanSeconds(j.phases.shuffle_seconds).c_str(),
        HumanSeconds(j.phases.reduce_seconds).c_str());
    if (j.map_task_retries > 0) {
      out += StrFormat(" retries=%lld", (long long)j.map_task_retries);
    }
    if (j.failed()) out += StrFormat(" FAILED(%s)", j.failure.c_str());
    out += "\n";
  }
  if (!plans.empty()) {
    out += StrFormat(
        "  plans: %zu scheduled, max concurrency %d, critical path %s of "
        "%s total node time\n",
        plans.size(), MaxScheduledConcurrency(),
        HumanSeconds(TotalCriticalPathSeconds()).c_str(),
        HumanSeconds(TotalPlanNodeSeconds()).c_str());
  }
  if (invariant_cache_hits + invariant_cache_misses > 0) {
    out += StrFormat("  invariant cache: %lld hits, %lld misses\n",
                     (long long)invariant_cache_hits,
                     (long long)invariant_cache_misses);
  }
  return out;
}

}  // namespace haten2
