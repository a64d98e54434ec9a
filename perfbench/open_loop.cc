#include "open_loop.h"

#include <limits>

namespace haten2 {
namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr auto kNap = std::chrono::microseconds(50);
/// More collectors than queries normally in flight, so an answer rarely
/// waits for a free collector.
constexpr int kCollectors = 8;

}  // namespace

double QueryOutcome::LatencySeconds() const {
  return ok ? done - due : std::numeric_limits<double>::infinity();
}

OpenLoopGenerator::OpenLoopGenerator(
    RequestPipeline* pipeline, std::function<Query(int64_t)> make_query,
    double rate_qps, SpanRecorder* spans)
    : pipeline_(pipeline),
      make_query_(std::move(make_query)),
      rate_qps_(rate_qps),
      spans_(spans),
      start_(Clock::now()),
      start_us_(spans->NowUs()) {
  for (int c = 0; c < kCollectors; ++c) {
    collectors_.emplace_back([this] { CollectLoop(); });
  }
  sender_ = std::thread([this] { SendLoop(); });
}

OpenLoopGenerator::~OpenLoopGenerator() { StopAndJoin(); }

std::vector<QueryOutcome> OpenLoopGenerator::StopAndJoin() {
  stop_ = true;
  if (sender_.joinable()) sender_.join();
  for (std::thread& c : collectors_) {
    if (c.joinable()) c.join();
  }
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<QueryOutcome>(outcomes_.begin(), outcomes_.end());
}

double OpenLoopGenerator::Now() const {
  return std::chrono::duration<double>(Clock::now() - start_).count();
}

void OpenLoopGenerator::SendLoop() {
  for (int64_t next = 0; !stop_; ++next) {
    const double due = static_cast<double>(next) / rate_qps_;
    while (Now() < due && !stop_) std::this_thread::sleep_for(kNap);
    if (stop_) break;
    Query q = make_query_(next);
    QueryOutcome o;
    o.kind = q.kind;
    o.due = due;
    o.sent = Now();
    std::future<RequestPipeline::Response> answer =
        pipeline_->Submit(std::move(q));
    {
      std::lock_guard<std::mutex> lock(mu_);
      outcomes_.push_back(o);
      inflight_.push_back({outcomes_.size() - 1, std::move(answer)});
    }
    cv_.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    sending_done_ = true;
  }
  cv_.notify_all();
}

void OpenLoopGenerator::CollectLoop() {
  while (true) {
    Inflight f;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return sending_done_ || !inflight_.empty(); });
      if (inflight_.empty()) return;
      f = std::move(inflight_.front());
      inflight_.pop_front();
    }
    RequestPipeline::Response r = f.future.get();
    const double done = Now();
    double sent = 0.0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      QueryOutcome& o = outcomes_[f.index];
      o.done = done;
      o.ok = r.status.ok() && r.result != nullptr;
      o.cache_hit = r.cache_hit;
      sent = o.sent;
    }
    if (spans_->enabled()) {
      // Concurrent queries overlap; the trace export gives each a free row.
      spans_->Add("query", "serving", -1, static_cast<int64_t>(f.index),
                  start_us_ + sent * 1e6, start_us_ + done * 1e6,
                  kOverlappingLane);
    }
  }
}

std::vector<double> LatenessMs(const std::vector<QueryOutcome>& outcomes) {
  std::vector<double> late;
  late.reserve(outcomes.size());
  for (const QueryOutcome& o : outcomes) late.push_back((o.sent - o.due) * 1e3);
  return late;
}

}  // namespace perfbench
}  // namespace haten2
