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
///   - **Recovery** (ClusterConfig::max_node_attempts > 1): a node whose
///     executor returns a *transient* failure — kAborted (a job exhausted
///     its task attempts) or kIOError, plus kResourceExhausted when
///     retry_oom_nodes is set — is re-run in place, up to the attempt cap,
///     with capped exponential backoff between attempts. Backoff is
///     *simulated* cluster time: it is recorded in
///     PlanNodeStats::backoff_seconds and charged by the CostModel, never
///     slept for real. Retries get fresh engine job ids, so the
///     deterministic failure injection draws a fresh pattern and a crashed
///     job's retry genuinely can succeed; producers write their output slots
///     only on success, so re-running a node is idempotent. Permanent
///     failures (bad input, contract violations) fail fast, and a node that
///     exhausts its attempts fails the plan exactly as before.
///
/// Node executors run on the thread that called Execute plus
/// min(cap, nodes) - 1 threads Execute spawns (none under cap 1), never on
/// the engine's worker pool: a node calls Engine::Run, which itself fans
/// out onto the pool, and nesting that inside a pool task would deadlock a
/// fully subscribed pool. Each executor runs under an Engine::PlanScope, so
/// every job it issues is tagged with the plan id and attributed to the
/// node.
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
