#include "mapreduce/cost_model.h"

#include <algorithm>
#include <cstddef>
#include <functional>
#include <queue>
#include <utility>

namespace haten2 {

uint64_t CostModel::EstimateInCoreLayoutBytes(int64_t nnz, int num_streams) {
  if (nnz < 0) nnz = 0;
  if (num_streams < 1) num_streams = 1;
  const uint64_t per_entry =
      16 +                                        // value + inner index
      8 * static_cast<uint64_t>(num_streams) +    // fiber offset + outer coords
      16;                                         // slice id + fiber offset
  return static_cast<uint64_t>(nnz) * per_entry + 4096;
}

double CostModel::Makespan(std::vector<double> task_costs, int workers) {
  if (task_costs.empty()) return 0.0;
  if (workers < 1) workers = 1;
  std::sort(task_costs.begin(), task_costs.end(), std::greater<double>());
  // Min-heap of worker loads. LPT never gives a task to a busy worker while
  // an idle one is left, so workers beyond the task count stay idle and
  // need no entry.
  const size_t used =
      std::min(task_costs.size(), static_cast<size_t>(workers));
  std::priority_queue<double, std::vector<double>, std::greater<double>> loads(
      std::greater<double>(), std::vector<double>(used, 0.0));
  for (double c : task_costs) {
    double lightest = loads.top();
    loads.pop();
    loads.push(lightest + c);
  }
  double makespan = 0.0;
  while (!loads.empty()) {
    makespan = std::max(makespan, loads.top());
    loads.pop();
  }
  return makespan;
}

double CostModel::SimulateJob(const JobStats& stats) const {
  // Map tasks: CPU per record for every attempt.
  std::vector<double> map_costs;
  map_costs.reserve(stats.map_task_records.size());
  for (size_t t = 0; t < stats.map_task_records.size(); ++t) {
    const int attempts = t < stats.map_task_attempts.size()
                             ? std::max(1, stats.map_task_attempts[t])
                             : 1;
    map_costs.push_back(static_cast<double>(stats.map_task_records[t]) *
                        config_.map_seconds_per_record *
                        static_cast<double>(attempts));
  }

  // Shuffle: aggregate bytes across the cluster's aggregate bandwidth.
  double shuffle_time =
      static_cast<double>(stats.map_output_bytes) /
      (config_.network_bytes_per_second *
       static_cast<double>(std::max(1, config_.num_machines)));

  // Reduce partitions: CPU per received record plus partition I/O. The
  // engine injects failures on map attempts only, so reduce tasks run once.
  std::vector<double> reduce_costs;
  reduce_costs.reserve(stats.reduce_partition_records.size());
  for (size_t p = 0; p < stats.reduce_partition_records.size(); ++p) {
    const double bytes =
        p < stats.reduce_partition_bytes.size()
            ? static_cast<double>(stats.reduce_partition_bytes[p])
            : 0.0;
    reduce_costs.push_back(
        static_cast<double>(stats.reduce_partition_records[p]) *
            config_.reduce_seconds_per_record +
        bytes / config_.disk_bytes_per_second);
  }

  return config_.job_startup_seconds +
         Makespan(std::move(map_costs), config_.TotalMapSlots()) +
         shuffle_time +
         Makespan(std::move(reduce_costs), config_.TotalReduceSlots());
}

double CostModel::SimulatePipeline(const PipelineStats& stats) const {
  // Summed in log order, which the engine keeps in job-id order, so the
  // float sum does not depend on which concurrent plan node finished first.
  double seconds = 0.0;
  for (const JobStats& j : stats.jobs) seconds += SimulateJob(j);
  return seconds;
}

}  // namespace haten2
