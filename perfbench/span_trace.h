#ifndef HATEN2_PERFBENCH_SPAN_TRACE_H_
#define HATEN2_PERFBENCH_SPAN_TRACE_H_

// In-memory span recorder for the benchmark's traced run. Spans are recorded
// by benchmark code around each call into a library layer (and synthesized
// as children from the stats the library already exports), kept in memory,
// and written out once at exit as Chrome trace-event JSON.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace haten2 {
namespace perfbench {

/// One timed interval. Times are microseconds since the recorder started.
struct Span {
  std::string name;
  /// Layer that did the work: bench, tensor, core, linalg, mapreduce,
  /// serving (the library's module names, plus the benchmark itself).
  std::string layer;
  double start_us = 0.0;
  double end_us = 0.0;
  int64_t id = -1;
  int64_t parent = -1;   ///< -1 for a root span
  int64_t request = -1;  ///< spans of one request / rep / epoch share this
  int lane = 0;          ///< display row (one per thread of control)

  double dur_us() const { return end_us - start_us; }
};

/// Lane for root spans that overlap one another (concurrent requests); the
/// trace export spreads them over as many display rows as needed.
constexpr int kOverlappingLane = -1;

/// Thread-safe span sink. When disabled every call is a cheap no-op, so the
/// untraced runs execute the same code.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }
  double NowUs() const;

  /// Opens a span starting now; returns its id (-1 when disabled).
  int64_t Begin(const std::string& name, const std::string& layer,
                int64_t parent, int64_t request);
  /// Closes a span opened by Begin.
  void End(int64_t id);
  /// Records a span with explicit times (children synthesized from stats).
  int64_t Add(const std::string& name, const std::string& layer,
              int64_t parent, int64_t request, double start_us, double end_us,
              int lane = 0);
  /// The span with `id` (must exist).
  Span Get(int64_t id) const;

  std::vector<Span> Snapshot() const;

 private:
  const bool enabled_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

/// RAII span around one call.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name,
             const std::string& layer, int64_t parent = -1,
             int64_t request = -1)
      : rec_(rec), id_(rec->Begin(name, layer, parent, request)) {}
  ~ScopedSpan() { rec_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  int64_t id_;
};

/// Lays out children back to back from `parent`'s start, one per
/// (name, layer, seconds) entry, clipped so none runs past the parent's end.
/// Returns the child ids (-1 when the recorder is disabled).
struct ChildSpec {
  std::string name;
  std::string layer;
  double seconds = 0.0;
};
std::vector<int64_t> AddSequentialChildren(SpanRecorder* rec, int64_t parent,
                                           const std::vector<ChildSpec>& kids);

/// Self time of each span (same order as `spans`): its duration minus the
/// part of its interval covered by the union of its children.
std::vector<double> SelfTimesUs(const std::vector<Span>& spans);

/// Checks that the self times account for every span: children lie inside
/// their parent and siblings on one lane do not overlap (tolerance
/// `tol_us`), so each tree's self times sum to its root's duration.
Status CheckSelfTimeAccounting(const std::vector<Span>& spans,
                               double tol_us = 1.0);

/// Per-layer totals of self time, in seconds.
std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<Span>& spans);

/// Renders the spans as Chrome trace-event JSON ("X" complete events), which
/// opens in Perfetto or chrome://tracing.
std::string ChromeTraceJson(const std::vector<Span>& spans);

}  // namespace perfbench
}  // namespace haten2

#endif  // HATEN2_PERFBENCH_SPAN_TRACE_H_
