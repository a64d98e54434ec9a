#ifndef HATEN2_MAPREDUCE_CLUSTER_H_
#define HATEN2_MAPREDUCE_CLUSTER_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace haten2 {

/// \brief Configuration of the (simulated) MapReduce cluster.
///
/// The engine executes jobs in-process using `num_threads` workers; the
/// remaining fields parameterize the CostModel which converts measured task
/// work into the makespan the same job would have on a `num_machines`-node
/// Hadoop cluster (see DESIGN.md, substitution table). Defaults model the
/// paper's testbed: 40 machines, quad-core Xeon E3, 32 GB RAM each.
struct ClusterConfig {
  /// Simulated cluster size (paper: 10-40 machines).
  int num_machines = 40;

  /// Concurrent map / reduce tasks per machine (paper machines: quad-core).
  int map_slots_per_machine = 4;
  int reduce_slots_per_machine = 4;

  /// Real execution threads for the in-process engine.
  int num_threads = 1;

  /// Maximum MapReduce jobs a PlanScheduler runs concurrently when a plan
  /// contains independent nodes (e.g. HaTen2-DRN's per-(stream, column)
  /// Hadamard jobs). 1 executes plans serially in node order — exactly the
  /// legacy eager-Run sequence. Values > 1 overlap independent jobs on the
  /// engine's thread pool; note the shuffle-memory budget is shared, so
  /// concurrent jobs can together exhaust a budget each would fit alone.
  /// Job ids, the job log's order and failure-injection draws are the same
  /// at every value (PlanScheduler assigns ids by node index).
  int max_concurrent_jobs = 1;

  /// Number of map tasks a job's input is split into; 0 = one per map slot.
  int num_map_tasks = 0;

  /// Number of reduce partitions; 0 = one per reduce slot.
  int num_reduce_tasks = 0;

  /// Fixed per-job overhead (JVM startup, job scheduling, synchronization).
  /// This is what makes many-job variants (Naive/DNN/DRN) slow and makes the
  /// Fig. 8 scale-up flatten: it does not shrink with more machines.
  double job_startup_seconds = 8.0;

  /// Per-record CPU costs for the simulated cluster.
  double map_seconds_per_record = 1.0e-6;
  double reduce_seconds_per_record = 1.0e-6;

  /// Per-machine shuffle (network) and reduce-partition I/O (disk)
  /// bandwidth.
  double network_bytes_per_second = 100.0e6;
  double disk_bytes_per_second = 200.0e6;

  /// Aggregate memory for in-flight intermediate (shuffle) data across the
  /// simulated cluster. Exceeding it fails a job with kResourceExhausted,
  /// reported as "o.o.m." in the benchmark harnesses.
  /// 0 means unlimited.
  uint64_t total_shuffle_memory_bytes = 0;

  /// Failure injection: probability that each map-task attempt fails and is
  /// re-executed, as Hadoop does with crashed tasks. Attempts are decided
  /// deterministically from failure_seed and the job id, so runs are
  /// reproducible, and a re-executed task re-emits exactly the same records
  /// — job output is invariant under retries (asserted in tests). A task
  /// failing max_task_attempts times in a row fails the job with kAborted,
  /// and with it the run, which resumes from its last ALS checkpoint.
  double task_failure_probability = 0.0;
  int max_task_attempts = 4;
  uint64_t failure_seed = 0xfa11u;

  /// Contraction execution strategy (core/contraction_strategy.h):
  /// "dataflow" always evaluates the bottleneck op as the paper's MapReduce
  /// job pipeline (the default — the variant tables' job counts hold
  /// exactly); "incore" forces the DFacTo-style compressed-layout kernels
  /// (one plan node, no shuffle); "auto" picks per plan node — in-core when
  /// CostModel::EstimateInCoreLayoutBytes fits incore_memory_mb, dataflow
  /// otherwise.
  std::string contraction = "dataflow";

  /// Per-node memory budget (MiB) the `auto` contraction policy allows for
  /// an in-core compressed layout. Must be >= 1. Sized to one worker's RAM
  /// share, not the whole cluster: the layout lives in a single process.
  int64_t incore_memory_mb = 1024;

  /// Randomized (sketched) Tucker HOOI (core/sketched_tucker.h): "none"
  /// keeps the exact per-mode SVD; "gaussian" / "countsketch" select the
  /// projection family the sketched driver compresses the contracted factor
  /// columns with. The CLI routes --method=tucker through the sketched
  /// driver whenever this is not "none". Never affects the exact drivers.
  std::string tucker_sketch = "none";

  /// Sketch dimension s: the column count the contracted factor space is
  /// projected down to before the merge jobs run. 0 = auto (the largest
  /// core dimension plus a small oversampling margin); explicit values must
  /// be >= the largest core dimension, which the driver checks (the config
  /// does not know the core dims). Must be >= 0.
  int64_t sketch_size = 0;

  /// Exact HOOI sweeps appended at the end of a sketched run to recover the
  /// accuracy the projections gave up (the randomized-Tucker papers'
  /// "polish" step). Must be >= 0; 0 runs sketched sweeps only.
  int exact_polish_sweeps = 2;

  /// Checks every field for values that would make the engine or the
  /// CostModel produce nonsense (Inf/NaN simulated seconds, division by
  /// zero, empty slot pools). Returns kInvalidArgument naming the offending
  /// field. Called by the Engine constructor (fail-fast on first Run) and
  /// by haten2_cli before constructing anything.
  Status Validate() const;

  int TotalMapSlots() const { return num_machines * map_slots_per_machine; }
  int TotalReduceSlots() const {
    return num_machines * reduce_slots_per_machine;
  }
  int EffectiveMapTasks() const {
    return num_map_tasks > 0 ? num_map_tasks : TotalMapSlots();
  }
  int EffectiveReduceTasks() const {
    return num_reduce_tasks > 0 ? num_reduce_tasks : TotalReduceSlots();
  }

  /// A small configuration suitable for unit tests: 4 machines, 1 slot each,
  /// negligible startup.
  static ClusterConfig ForTesting() {
    ClusterConfig c;
    c.num_machines = 4;
    c.map_slots_per_machine = 1;
    c.reduce_slots_per_machine = 1;
    c.num_threads = 2;
    c.job_startup_seconds = 0.0;
    return c;
  }
};

}  // namespace haten2

#endif  // HATEN2_MAPREDUCE_CLUSTER_H_
