#ifndef HATEN2_MAPREDUCE_COST_MODEL_H_
#define HATEN2_MAPREDUCE_COST_MODEL_H_

#include <cstdint>
#include <vector>

#include "mapreduce/cluster.h"
#include "mapreduce/stats.h"

namespace haten2 {

/// \brief Converts measured job counters into the makespan the same job
/// would have on a ClusterConfig-sized Hadoop cluster.
///
/// This is the substitution for the paper's 40-machine testbed (DESIGN.md):
/// the in-process engine measures *what* each job moved and computed (records
/// per map task, records/bytes per reduce partition); the cost model
/// schedules those tasks onto M machines and adds the fixed per-job startup
/// overhead. Because startup does not shrink with M while the work terms do,
/// the simulated scale-up T_10/T_M flattens as machines are added — the
/// behaviour of Figure 8.
///
/// The machines are identical, as in the paper's testbed, so each task
/// phase is scheduled by `Makespan`: greedy longest-processing-time list
/// scheduling onto the cluster's map (or reduce) slots.
class CostModel {
 public:
  explicit CostModel(const ClusterConfig& config) : config_(config) {}

  /// Simulated seconds for one job on the configured cluster: startup, the
  /// map makespan, the shuffle, and the reduce makespan.
  double SimulateJob(const JobStats& stats) const;

  /// Simulated seconds for a job sequence (jobs are serialized on Hadoop:
  /// each waits for the previous to finish) plus the plan-level retry
  /// backoff. Jobs are summed in job-id order, so the total does not depend
  /// on the order in which concurrent plan nodes finished.
  double SimulatePipeline(const PipelineStats& stats) const;

  /// Upper-bound estimate of the memory an in-core compressed contraction
  /// layout (linalg/sparse_kernels.h CsfLayout) of an nnz-entry tensor with
  /// `num_streams` contracted modes would occupy, in bytes. Pure arithmetic
  /// on purpose — the mapreduce layer never sees tensors — sized for the
  /// worst case where every entry is its own fiber and slice:
  /// value + inner index (16 B/entry), fiber offsets + outer coords
  /// (8 * num_streams B/entry), slice ids + offsets (16 B/entry), plus a
  /// fixed slack for the struct and array headers. The `auto` contraction
  /// policy compares this against incore_memory_mb.
  static uint64_t EstimateInCoreLayoutBytes(int64_t nnz, int num_streams);

  /// Greedy longest-processing-time makespan of `task_costs` on `workers`
  /// parallel workers: tasks, longest first, each go to the least-loaded
  /// worker. `workers` < 1 counts as one worker.
  static double Makespan(std::vector<double> task_costs, int workers);

 private:
  ClusterConfig config_;
};

}  // namespace haten2

#endif  // HATEN2_MAPREDUCE_COST_MODEL_H_
