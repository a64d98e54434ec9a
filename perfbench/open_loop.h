#ifndef HATEN2_PERFBENCH_OPEN_LOOP_H_
#define HATEN2_PERFBENCH_OPEN_LOOP_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "serving/query_engine.h"
#include "serving/request_pipeline.h"
#include "span_trace.h"

namespace haten2 {
namespace perfbench {

/// One query's timeline, in seconds since the generator started.
struct QueryOutcome {
  QueryKind kind = QueryKind::kTopK;
  double due = 0.0;   ///< scheduled send time
  double sent = 0.0;  ///< when Submit was called
  double done = 0.0;  ///< when the answer arrived
  bool ok = false;
  bool cache_hit = false;

  /// Latency charged to the system: from the due time, so a stall also
  /// delays every query scheduled behind it. A failed query never meets a
  /// limit, so it counts as infinitely late.
  double LatencySeconds() const;
};

/// \brief Open-loop load: one thread sends query i at start + i / rate
/// whatever the system's state; a few collector threads block on the
/// answers and stamp each one as it arrives.
///
/// The sender polls in 50 µs naps rather than sleeping until the next due
/// time: on the reference VM a multi-millisecond sleep wakes 7-9 ms late at
/// p99, 50 µs naps wake on time (p99 0.1-0.6 ms), and a spinning thread
/// loses about 1% of its time to host preemption. Collectors are woken by
/// the answering worker (a futex wake, p99.9 0.6 ms on the same VM), so a
/// stall of the sender does not delay the stamps. Queries come from
/// `make_query(i)`, a pure function of i (the schedule is fixed by rate and
/// seed).
class OpenLoopGenerator {
 public:
  OpenLoopGenerator(RequestPipeline* pipeline,
                    std::function<Query(int64_t)> make_query, double rate_qps,
                    SpanRecorder* spans);
  ~OpenLoopGenerator();

  OpenLoopGenerator(const OpenLoopGenerator&) = delete;
  OpenLoopGenerator& operator=(const OpenLoopGenerator&) = delete;

  /// Stops sending, waits for every outstanding answer, joins the threads,
  /// and returns the outcomes.
  std::vector<QueryOutcome> StopAndJoin();

 private:
  struct Inflight {
    size_t index = 0;
    std::future<RequestPipeline::Response> future;
  };

  void SendLoop();
  void CollectLoop();
  double Now() const;

  RequestPipeline* pipeline_;
  std::function<Query(int64_t)> make_query_;
  double rate_qps_;
  SpanRecorder* spans_;
  const std::chrono::steady_clock::time_point start_;
  const double start_us_;
  std::atomic<bool> stop_{false};

  std::mutex mu_;  // guards the fields below
  std::condition_variable cv_;
  std::deque<QueryOutcome> outcomes_;
  std::deque<Inflight> inflight_;
  bool sending_done_ = false;

  // Declared last: the threads start after the fields they use.
  std::vector<std::thread> collectors_;
  std::thread sender_;
};

/// How late the generator sent each query versus its schedule (ms).
std::vector<double> LatenessMs(const std::vector<QueryOutcome>& outcomes);

}  // namespace perfbench
}  // namespace haten2

#endif  // HATEN2_PERFBENCH_OPEN_LOOP_H_
