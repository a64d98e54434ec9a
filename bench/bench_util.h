#ifndef HATEN2_BENCH_BENCH_UTIL_H_
#define HATEN2_BENCH_BENCH_UTIL_H_

// Shared helpers for the paper-reproduction benchmark harnesses. Each
// harness regenerates one table or figure of the paper (see DESIGN.md's
// experiment index) and prints the same rows/series the paper reports.
// Absolute numbers differ (simulated cluster, scaled-down data); the shapes
// — who wins, who dies with o.o.m., where crossovers fall — are the
// reproduction target recorded in EXPERIMENTS.md.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "baseline/toolbox.h"
#include "core/parafac.h"
#include "core/tucker.h"
#include "core/variant.h"
#include "mapreduce/cost_model.h"
#include "mapreduce/engine.h"
#include "tensor/sparse_tensor.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace haten2 {
namespace bench {

/// The simulated 40-machine cluster of the paper (Section IV-A1), with a
/// shuffle-memory budget that scales the paper's aggregate cluster memory
/// down to the scaled-down datasets.
///
/// `record_scale`: the harness datasets are ~1000x smaller than the paper's,
/// so each measured record stands for `record_scale` records of the
/// paper-scale workload; the CostModel's per-record costs and bandwidths are
/// scaled accordingly. Without this the fixed per-job startup trivially
/// dominates every simulated time and the curves are flat. The o.o.m.
/// budget is NOT scaled — it applies to the records actually materialized.
inline ClusterConfig PaperCluster(uint64_t shuffle_budget_bytes,
                                  double record_scale = 1000.0) {
  ClusterConfig config;
  config.num_machines = 40;
  config.map_slots_per_machine = 4;
  config.reduce_slots_per_machine = 4;
  config.num_threads = 1;  // benchmark host is single-core
  config.job_startup_seconds = 8.0;
  config.total_shuffle_memory_bytes = shuffle_budget_bytes;
  config.map_seconds_per_record *= record_scale;
  config.reduce_seconds_per_record *= record_scale;
  config.network_bytes_per_second /= record_scale;
  config.disk_bytes_per_second /= record_scale;
  return config;
}

/// One measured cell of a figure: either a time or an o.o.m. marker.
struct Measurement {
  bool oom = false;
  double wall_seconds = 0.0;       ///< real single-host execution time
  double simulated_seconds = 0.0;  ///< CostModel time on the paper cluster
  int64_t jobs = 0;
  int64_t max_intermediate_records = 0;
  uint64_t max_intermediate_bytes = 0;
  int64_t total_intermediate_records = 0;

  /// Snapshot of the engine's per-job log for this cell (empty for
  /// single-machine baselines), so the JSON export keeps the full detail
  /// the table cells summarize.
  PipelineStats pipeline;

  std::string Cell() const {
    if (oom) return "o.o.m.";
    return StrFormat("%8.1fs", simulated_seconds);
  }
};

/// Runs `body` (which should execute jobs on `engine`) and collects the
/// measurement from the engine's pipeline log.
template <typename Body>
Measurement MeasureMr(Engine* engine, Body&& body) {
  engine->ClearPipeline();
  Measurement out;
  WallTimer timer;
  Status status = body();
  out.wall_seconds = timer.ElapsedSeconds();
  out.oom = status.IsResourceExhausted();
  if (!status.ok() && !out.oom) {
    std::fprintf(stderr, "unexpected failure: %s\n",
                 status.ToString().c_str());
  }
  PipelineStats pipeline = engine->PipelineSnapshot();
  out.jobs = pipeline.NumJobs();
  out.max_intermediate_records = pipeline.MaxIntermediateRecords();
  out.max_intermediate_bytes = pipeline.MaxIntermediateBytes();
  out.total_intermediate_records = pipeline.TotalIntermediateRecords();
  out.simulated_seconds =
      CostModel(engine->config()).SimulatePipeline(pipeline);
  out.pipeline = std::move(pipeline);
  return out;
}

/// Runs a single-machine baseline body under a memory budget.
template <typename Body>
Measurement MeasureBaseline(Body&& body) {
  Measurement out;
  WallTimer timer;
  Status status = body();
  out.wall_seconds = timer.ElapsedSeconds();
  out.simulated_seconds = out.wall_seconds;
  out.oom = status.IsResourceExhausted();
  if (!status.ok() && !out.oom) {
    std::fprintf(stderr, "unexpected failure: %s\n",
                 status.ToString().c_str());
  }
  return out;
}

inline void PrintHeader(const std::string& title,
                        const std::vector<std::string>& columns) {
  std::printf("\n=== %s ===\n", title.c_str());
  for (const std::string& c : columns) std::printf("%14s", c.c_str());
  std::printf("\n");
  for (size_t i = 0; i < columns.size(); ++i) std::printf("--------------");
  std::printf("\n");
}

inline void PrintRow(const std::vector<std::string>& cells) {
  for (const std::string& c : cells) std::printf("%14s", c.c_str());
  std::printf("\n");
}

}  // namespace bench
}  // namespace haten2

#endif  // HATEN2_BENCH_BENCH_UTIL_H_
