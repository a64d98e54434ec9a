#ifndef HATEN2_MAPREDUCE_STATS_H_
#define HATEN2_MAPREDUCE_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace haten2 {

/// \brief Wall time attributed to each phase of one engine job.
///
/// The engine times the phases as contiguous segments covering Run() end to
/// end, so on a successful job Total() ≈ JobStats::wall_seconds (the gaps
/// are allocation noise). On a failed job only the phases that actually ran
/// are populated.
struct PhaseTimes {
  /// Emitter setup, map tasks (reader calls), and retry bookkeeping.
  double map_seconds = 0.0;
  /// End-of-task combiners; 0 when the job has no combiner.
  double combine_seconds = 0.0;
  /// Shuffle: counting the records each reduce partition receives.
  double shuffle_seconds = 0.0;
  /// Sort-merge grouping, reducer invocations and output concatenation.
  double reduce_seconds = 0.0;

  double Total() const {
    return map_seconds + combine_seconds + shuffle_seconds + reduce_seconds;
  }
};

/// \brief min / p50 / max summary of a per-task (or per-partition) counter
/// vector — the skew the CostModel's LPT makespan reacts to.
struct TaskSkew {
  int64_t tasks = 0;
  int64_t min_records = 0;
  int64_t p50_records = 0;
  int64_t max_records = 0;
};

/// Computes the skew summary of `counts` (all zeros when empty).
TaskSkew SkewOf(std::vector<int64_t> counts);

/// \brief Counters collected while executing one MapReduce job.
///
/// `map_output_records` / `map_output_bytes` measure the job's *intermediate
/// data* — the quantity Tables III and IV of the paper bound per method. The
/// per-task vectors feed the CostModel's simulated makespan.
///
/// Byte counters use the record width sizeof(std::pair<K, V>) (padding
/// included) — the width a record occupies in the resident buffers the
/// shuffle budget charges (see docs/INTERNALS.md, Accounting).
struct JobStats {
  std::string name;

  /// Engine-wide monotonically increasing job identifier (the same sequence
  /// number that keys the failure-injection draws). Stable under concurrent
  /// scheduling: drivers attribute jobs to ALS iterations by id ranges, not
  /// by position in the pipeline log (which records completion order).
  int64_t job_id = -1;
  /// Identifier of the Plan this job ran under, or -1 for a job issued
  /// directly through Engine::Run outside any plan.
  int64_t plan_id = -1;

  int64_t map_input_records = 0;
  /// Records emitted by mappers before the combiner (if any) ran.
  int64_t pre_combine_records = 0;
  /// Records actually shuffled (after combining).
  int64_t map_output_records = 0;
  uint64_t map_output_bytes = 0;

  int64_t reduce_input_groups = 0;
  int64_t reduce_output_records = 0;

  /// Input records actually passed to the reader by each map task (an
  /// aborted or budget-killed task counts only what it processed).
  std::vector<int64_t> map_task_records;
  /// Execution attempts per map task (1 = no retry; failure injection).
  std::vector<int> map_task_attempts;
  /// Total retried map-task attempts in this job.
  int64_t map_task_retries = 0;
  /// Shuffled records received by each reduce partition.
  std::vector<int64_t> reduce_partition_records;
  /// Shuffled bytes received by each reduce partition.
  std::vector<uint64_t> reduce_partition_bytes;

  /// Real in-process execution time of this job.
  double wall_seconds = 0.0;
  /// Per-phase breakdown of wall_seconds.
  PhaseTimes phases;

  /// Empty for a successful job; otherwise how it died:
  /// "oom" (shuffle-memory budget) or "aborted" (a task exceeded
  /// max_task_attempts).
  std::string failure;
  bool failed() const { return !failure.empty(); }

  TaskSkew MapTaskSkew() const { return SkewOf(map_task_records); }
  TaskSkew ReducePartitionSkew() const {
    return SkewOf(reduce_partition_records);
  }
};

/// \brief Execution record of one node of a dataflow Plan (see
/// mapreduce/plan.h). A node usually wraps exactly one Engine::Run call
/// (its job id then appears in `job_ids`); assembly nodes that only
/// concatenate upstream outputs run no engine job and have an empty list.
struct PlanNodeStats {
  std::string label;
  /// Indices (into PlanStats::nodes) of the nodes this one depends on —
  /// the plan's dependency edges.
  std::vector<int> deps;
  /// Engine job ids issued while this node executed.
  std::vector<int64_t> job_ids;
  /// Wall time of the node's executor, summed over every attempt (0 for
  /// nodes that never ran).
  double seconds = 0.0;
  /// Executor attempts: 0 = never ran, 1 = ran once (no retry), k > 1 =
  /// retried k-1 times after transient failures
  /// (ClusterConfig::max_node_attempts).
  int attempts = 0;
  /// Simulated backoff accumulated before this node's retries (cluster
  /// time, counted by the CostModel — the in-process run never sleeps).
  double backoff_seconds = 0.0;
  /// "ok", "failed", or "skipped" (a dependency failed first).
  std::string status = "skipped";
  /// Contraction strategy that built this node ("dataflow" / "incore");
  /// empty for nodes outside a contraction evaluation.
  std::string contraction_strategy;
  /// Phase breakdown of an in-core node (both 0 for dataflow nodes):
  /// layout construction / cache fetch vs. kernel evaluation time.
  double layout_build_seconds = 0.0;
  double evaluate_seconds = 0.0;
};

/// \brief Statistics of one scheduled Plan: the DAG shape, the concurrency
/// the scheduler actually achieved, and the critical-path/total-work split
/// that bounds what more concurrency could buy (critical_path_seconds is
/// the lower bound on plan wall time with infinite workers).
struct PlanStats {
  int64_t plan_id = -1;
  std::string name;
  std::vector<PlanNodeStats> nodes;

  /// Configured cap on concurrently running nodes.
  int concurrency_limit = 1;
  /// Maximum number of nodes observed running simultaneously.
  int max_observed_concurrency = 0;

  /// End-to-end wall time of the plan (schedule + execute + join).
  double wall_seconds = 0.0;
  /// Longest dependency-chain sum of node seconds.
  double critical_path_seconds = 0.0;
  /// The same longest chain with each node's simulated retry backoff
  /// included — the critical path as the CostModel's simulated cluster
  /// would experience it (the scheduler never sleeps backoff for real, so
  /// it is excluded from critical_path_seconds). Equal to
  /// critical_path_seconds when no node retried.
  double critical_path_with_backoff_seconds = 0.0;
  /// Sum of node seconds over every node that ran.
  double total_node_seconds = 0.0;
  /// Retried node attempts across the plan: sum of (attempts - 1) over the
  /// nodes that ran.
  int total_node_retries = 0;
  /// Sum of simulated retry backoff across the plan's nodes.
  double total_backoff_seconds = 0.0;

  bool failed() const {
    for (const PlanNodeStats& n : nodes) {
      if (n.status == "failed") return true;
    }
    return false;
  }
};

/// \brief Aggregate over the jobs of one logical operation (e.g. one
/// evaluation of X ×₂ Bᵀ ×₃ Cᵀ, or one full decomposition).
struct PipelineStats {
  std::vector<JobStats> jobs;
  /// One entry per Plan scheduled through the engine (empty when every job
  /// was issued directly). Jobs of a plan also appear in `jobs`, tagged
  /// with the matching JobStats::plan_id.
  std::vector<PlanStats> plans;

  /// Iteration-invariant input-scan cache (core/contract.h ContractCache):
  /// how often a repeated bottleneck-op evaluation reused the decoded
  /// coordinate records of its input tensor instead of re-scanning it.
  int64_t invariant_cache_hits = 0;
  int64_t invariant_cache_misses = 0;

  int64_t NumJobs() const { return static_cast<int64_t>(jobs.size()); }

  /// Max over jobs of shuffled records — the paper's "Max. Intermediate
  /// Data" column.
  int64_t MaxIntermediateRecords() const;
  uint64_t MaxIntermediateBytes() const;

  int64_t TotalIntermediateRecords() const;
  uint64_t TotalIntermediateBytes() const;
  int64_t TotalMapTaskRetries() const;
  /// Jobs that ended with a non-empty JobStats::failure.
  int64_t NumFailedJobs() const;
  double TotalWallSeconds() const;

  /// Max over plans of the concurrency the scheduler actually achieved
  /// (0 when no plan ran).
  int MaxScheduledConcurrency() const;
  /// Sum over plans of the critical-path seconds — the lower bound on their
  /// combined wall time under unlimited concurrency.
  double TotalCriticalPathSeconds() const;
  /// Sum over plans of the backoff-inclusive critical path (the simulated
  /// cluster's view; == TotalCriticalPathSeconds() when nothing retried).
  double TotalCriticalPathWithBackoffSeconds() const;
  /// Sum over plans of total node seconds (the serial-execution cost).
  double TotalPlanNodeSeconds() const;
  /// Sum over plans of retried node attempts (plan-level recovery).
  int64_t TotalNodeRetries() const;
  /// Sum over plans of simulated retry backoff (counted by the CostModel).
  double TotalNodeBackoffSeconds() const;
  /// Plan nodes executed by each contraction strategy across the pipeline
  /// (nodes with an empty strategy tag — non-contraction work — count in
  /// neither).
  int64_t IncoreNodes() const;
  int64_t DataflowNodes() const;

  void Clear() {
    jobs.clear();
    plans.clear();
    invariant_cache_hits = 0;
    invariant_cache_misses = 0;
  }

  /// Multi-line human-readable summary.
  std::string ToString() const;
};

/// \brief One ALS (outer) iteration as recorded by a decomposition driver:
/// model-quality numbers plus the MapReduce jobs the iteration executed.
/// A failed iteration (o.o.m. mid-MTTKRP) is still recorded, with the jobs
/// that ran before the failure.
struct IterationStats {
  int iteration = 0;
  double wall_seconds = 0.0;

  /// PARAFAC fit after this iteration (when the driver computed it).
  bool has_fit = false;
  double fit = 0.0;
  /// Tucker ||G|| after this iteration (when applicable).
  bool has_core_norm = false;
  double core_norm = 0.0;
  /// PARAFAC λ after this iteration (empty for Tucker).
  std::vector<double> lambda;

  /// Sketched-Tucker sweep annotations (v8): driver-side seconds spent in
  /// sketch construction + randomized range finding, the sketch width s
  /// this sweep contracted with (0 on exact sweeps), and whether the sweep
  /// was an exact polish sweep. has_sketch is false for every other driver.
  bool has_sketch = false;
  double sketch_seconds = 0.0;
  int64_t sketch_dims = 0;
  bool sketch_polish = false;

  /// The engine jobs executed during this iteration.
  PipelineStats pipeline;
};

/// \brief Per-iteration trace of one decomposition run, filled by the
/// drivers when Haten2Options::trace points at one.
struct DecompositionTrace {
  std::vector<IterationStats> iterations;

  void Clear() { iterations.clear(); }
};

}  // namespace haten2

#endif  // HATEN2_MAPREDUCE_STATS_H_
