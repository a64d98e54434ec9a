#ifndef HATEN2_BENCH_BENCH_JSON_H_
#define HATEN2_BENCH_BENCH_JSON_H_

// Machine-readable export for the paper-reproduction harnesses: each
// harness collects its measured cells into a BenchJsonLog and writes
// BENCH_<name>.json next to the human-readable table. The "haten2-bench-v1"
// schema (documented in docs/INTERNALS.md) shares its per-job shape with
// the CLI's "haten2-stats-v13" export, so one reader covers both.
//
// Output directory: $HATEN2_BENCH_JSON_DIR when set, else the working
// directory.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "mapreduce/stats_json.h"
#include "util/json_writer.h"
#include "util/result.h"

namespace haten2 {
namespace bench {

class BenchJsonLog {
 public:
  explicit BenchJsonLog(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  /// Records one measured cell. `sweep` names the parameter being swept
  /// (e.g. "dims"), `param` the point (e.g. "I=1000"), `method` the
  /// competitor (e.g. "HaTen2-DRI"). Cells skipped after an earlier o.o.m.
  /// are not recorded — absence from the log means "not run".
  void Add(const std::string& sweep, const std::string& param,
           const std::string& method, const Measurement& m) {
    cells_.push_back(Cell{sweep, param, method, m});
  }

  /// Serializes every recorded cell ("haten2-bench-v1").
  std::string ToJson() const {
    JsonWriter w;
    w.BeginObject();
    w.Key("schema");
    w.Value("haten2-bench-v1");
    w.Key("bench");
    w.Value(bench_name_);
    w.Key("cells");
    w.BeginArray();
    for (const Cell& cell : cells_) {
      w.BeginObject();
      w.Key("sweep");
      w.Value(cell.sweep);
      w.Key("param");
      w.Value(cell.param);
      w.Key("method");
      w.Value(cell.method);
      w.Key("oom");
      w.Value(cell.m.oom);
      w.Key("wall_seconds");
      w.Value(cell.m.wall_seconds);
      w.Key("simulated_seconds");
      w.Value(cell.m.simulated_seconds);
      w.Key("jobs");
      w.Value(cell.m.jobs);
      w.Key("max_intermediate_records");
      w.Value(cell.m.max_intermediate_records);
      w.Key("max_intermediate_bytes");
      w.Value(cell.m.max_intermediate_bytes);
      w.Key("total_intermediate_records");
      w.Value(cell.m.total_intermediate_records);
      w.Key("pipeline");
      PipelineStatsToJson(cell.m.pipeline, /*cost=*/nullptr, &w);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    return w.str();
  }

  /// Writes BENCH_<name>.json and reports the path on stdout. Returns the
  /// path written, or "" on failure (the failure is printed, not fatal:
  /// the human-readable tables already went to stdout).
  std::string Write() const {
    const char* dir = std::getenv("HATEN2_BENCH_JSON_DIR");
    std::string path = (dir != nullptr && dir[0] != '\0')
                           ? std::string(dir) + "/BENCH_" + bench_name_ +
                                 ".json"
                           : "BENCH_" + bench_name_ + ".json";
    Status status = WriteTextFile(path, ToJson());
    if (!status.ok()) {
      std::fprintf(stderr, "bench json: %s\n", status.ToString().c_str());
      return "";
    }
    std::printf("wrote %s (%zu cells)\n", path.c_str(), cells_.size());
    return path;
  }

 private:
  struct Cell {
    std::string sweep;
    std::string param;
    std::string method;
    Measurement m;
  };

  std::string bench_name_;
  std::vector<Cell> cells_;
};

}  // namespace bench
}  // namespace haten2

#endif  // HATEN2_BENCH_BENCH_JSON_H_
