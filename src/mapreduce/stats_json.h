#ifndef HATEN2_MAPREDUCE_STATS_JSON_H_
#define HATEN2_MAPREDUCE_STATS_JSON_H_

#include <string>

#include "mapreduce/cluster.h"
#include "mapreduce/cost_model.h"
#include "mapreduce/stats.h"
#include "util/json_writer.h"
#include "util/result.h"

namespace haten2 {

/// JSON serialization of the engine's and drivers' statistics — the stable
/// "haten2-stats-v13" schema documented in docs/INTERNALS.md. The schema is
/// what --stats_json and the BENCH_*.json harness exports emit, so the
/// perf trajectory can be read by machines across PRs.
///
/// v2 extends v1 (purely additive) with the dataflow-plan layer: jobs carry
/// job_id/plan_id, pipelines carry a plans array plus scheduling aggregates
/// (scheduled_concurrency, critical_path_seconds, total_node_seconds) and
/// the invariant input-scan cache counters, and the cluster object carries
/// max_concurrent_jobs.
///
/// v3 extends v2 (purely additive) with plan-level recovery: plan nodes
/// carry attempts/backoff_seconds, plans carry
/// total_node_retries/total_backoff_seconds, pipelines carry
/// node_retries/node_backoff_seconds, and the cluster object carries
/// max_node_attempts.
///
/// v5 extends v4 (purely additive) with heterogeneous clusters and
/// speculative execution: jobs and pipelines carry speculation counters
/// (cost-model-gated, like simulated_seconds), plans and pipelines carry
/// critical_path_with_backoff_seconds, and the cluster object carries the
/// speculation knobs plus a run-length-grouped machine_profiles summary.
///
/// v6 extends v5 (purely additive) with the subprocess backend: the
/// cluster object carries backend/num_workers, the report carries a
/// `workers` array of per-worker-slot counters (tasks, wire bytes
/// sent/received, restarts — additive over the engine's lifetime), and
/// jobs may report the new failure kind "worker_lost".
///
/// v9 extends v8 (purely additive) with the ingest → refit loop: the
/// report may carry a `refit` object (epoch/staleness counters plus
/// cumulative merge/refit cost — see RefitStatsReport below), emitted by
/// `haten2_cli --ingest_log` and `haten2_serve --refit_loop`.
///
/// v10 drops the `refit` object's `incremental` key: every refit patches
/// its contraction cache, so there is no refit mode left to report. Every
/// other field is unchanged.
///
/// v11 drops what v6 added: the cluster object's backend/num_workers, the
/// report's `workers` array and the failure kind "worker_lost". The engine
/// has one execution backend, so there is nothing left to select or count.
/// Every other field is unchanged.
///
/// v12 drops v5's speculation counters (the per-job `speculation` object
/// and the pipeline's speculated_tasks/speculation_won/
/// speculation_wasted_seconds) and the cluster object's straggler keys
/// (speculative_execution, speculation_slowstart, straggler_jitter,
/// straggler_jitter_seed, machine_profiles): the cost model simulates one
/// uniform cluster. It also drops the per-job `spill.bytes` alias, which
/// always equalled `spill.raw_bytes`. Every other field is unchanged.
///
/// v13 drops shuffle spilling's keys: the per-job `spill` object, the
/// pipeline's total_spilled_records/total_spilled_raw_bytes/
/// total_spilled_compressed_bytes, the cluster object's
/// spill_threshold_records/spill_compression, and the failure kind
/// "io_error". The engine keeps every shuffle buffer resident, so there is
/// no spill traffic to report. Every other field is unchanged.
///
/// All byte counters use the engine's record width (sizeof of the
/// intermediate record pair, padding included) — the width a record
/// occupies in the resident buffers the shuffle budget charges.

/// Appends one job as a JSON object. With a non-null `cost`, includes the
/// job's simulated cluster seconds.
void JobStatsToJson(const JobStats& job, const CostModel* cost,
                    JsonWriter* w);

/// Appends a pipeline (aggregates plus the per-job and per-plan arrays).
void PipelineStatsToJson(const PipelineStats& pipeline, const CostModel* cost,
                         JsonWriter* w);

/// Appends one scheduled plan (DAG shape, per-node timing/status, achieved
/// concurrency, and the critical-path/total-work split).
void PlanStatsToJson(const PlanStats& plan, JsonWriter* w);

/// Appends one driver-level ALS iteration (fit / λ / ||G|| plus its jobs).
void IterationStatsToJson(const IterationStats& iteration,
                          const CostModel* cost, JsonWriter* w);

/// Appends the cluster parameters that shaped the measurements.
void ClusterConfigToJson(const ClusterConfig& config, JsonWriter* w);

/// \brief Refit-loop counters for the `refit` object. A plain mirror of
/// the core layer's RefitCounters plus the controller's staleness fields —
/// mapreduce cannot depend on core, so callers (the CLIs) copy the fields
/// across.
struct RefitStatsReport {
  int64_t epochs = 0;          ///< epoch deltas merged and refit
  int64_t delta_nnz = 0;       ///< stored delta entries merged, summed
  double merge_seconds = 0.0;  ///< cumulative merge + cache-patch time
  double refit_seconds = 0.0;  ///< cumulative ALS time across refits
  int64_t refit_iterations = 0;
  /// Staleness, from the serving controller (zeroed in CLI batch runs).
  int64_t epochs_behind = 0;
  int64_t max_epochs_behind = 0;
};

/// \brief Everything one decomposition run exports. Pointer members are
/// optional (skipped when null) and not owned.
struct StatsReport {
  std::string tool;     ///< e.g. "haten2_cli"
  std::string method;   ///< e.g. "parafac"
  std::string variant;  ///< e.g. "dri"
  std::string dataset;  ///< input path or generator description
  /// "ok", or the failure kind ("oom", "aborted", "error").
  std::string status = "ok";
  double wall_seconds = 0.0;

  bool has_fit = false;
  double fit = 0.0;
  int iterations_run = 0;

  const ClusterConfig* cluster = nullptr;   ///< also enables CostModel times
  const DecompositionTrace* trace = nullptr;
  const PipelineStats* pipeline = nullptr;
  /// Refit-loop counters (the `refit` object); skipped when null.
  const RefitStatsReport* refit = nullptr;
};

/// Serializes the whole report ("haten2-stats-v13").
std::string StatsReportToJson(const StatsReport& report);

/// Serializes `report` and writes it to `path`.
Status WriteStatsJsonFile(const StatsReport& report, const std::string& path);

}  // namespace haten2

#endif  // HATEN2_MAPREDUCE_STATS_JSON_H_
