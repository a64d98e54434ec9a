#ifndef HATEN2_MAPREDUCE_SCHEDULER_H_
#define HATEN2_MAPREDUCE_SCHEDULER_H_

#include "mapreduce/engine.h"
#include "mapreduce/plan.h"
#include "util/status.h"

namespace haten2 {

/// \brief Executes a Plan's DAG on an Engine, overlapping independent nodes.
///
/// Scheduling rules (see docs/INTERNALS.md, "Dataflow plan layer"):
///   - A node is *ready* once all of its dependencies finished successfully;
///     ready nodes start lowest-index-first.
///   - At most `max_concurrent` nodes run at a time. With a cap of 1 the
///     plan executes serially in node-index order — exactly the sequence the
///     legacy eager drivers produced — so cap 1 is bit-compatible with
///     pre-plan behaviour.
///   - On the first node failure no further nodes start; nodes already
///     running finish (their engine jobs are real and stay in the pipeline
///     log). Un-run nodes are recorded as "skipped", and Execute returns the
///     failed node's Status (the lowest-index failure when several nodes
///     fail in the same wave).
///   - Each node runs its executor once and at most one engine job. A
///     failed node fails the plan; above map-task re-execution
///     (ClusterConfig::max_task_attempts), a run recovers only by resuming
///     from its last ALS checkpoint (core/checkpoint.h).
///   - Execute reserves one job id per node before any node starts, and
///     node i's job gets the plan's first id + i. Job ids, the pipeline
///     log's order, CostModel::SimulatePipeline's sum and the
///     failure-injection draws are therefore the same at any cap. A node
///     that runs no engine job (an assembly, in-core or sketch node) leaves
///     its id unused.
///
/// Node executors run on the thread that called Execute plus
/// min(cap, nodes) - 1 threads Execute spawns (none under cap 1), never on
/// the engine's worker pool: a node calls Engine::Run, which itself fans
/// out onto the pool, and nesting that inside a pool task would deadlock a
/// fully subscribed pool. Each executor runs under an Engine::PlanScope, so
/// the job it issues is tagged with the plan id, gets the node's reserved
/// id and is attributed to the node.
///
/// Execute records a PlanStats into the engine's pipeline log: the DAG
/// shape, per-node timing and status, the concurrency actually observed,
/// and the critical-path vs total-node-seconds split.
class PlanScheduler {
 public:
  /// `max_concurrent` <= 0 uses the engine's
  /// ClusterConfig::max_concurrent_jobs.
  explicit PlanScheduler(Engine* engine, int max_concurrent = 0);

  /// Runs the plan to completion (or first failure). Returns the build
  /// error without running anything when the plan was malformed.
  Status Execute(const Plan& plan);

  int max_concurrent() const { return max_concurrent_; }

 private:
  Engine* engine_;
  int max_concurrent_;
};

}  // namespace haten2

#endif  // HATEN2_MAPREDUCE_SCHEDULER_H_
