#ifndef HATEN2_UTIL_TIMER_H_
#define HATEN2_UTIL_TIMER_H_

#include <chrono>

namespace haten2 {

/// \brief Monotonic wall-clock timer.
class WallTimer {
 public:
  WallTimer() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

  /// Seconds since construction or the previous Restart()/Lap(), then
  /// restarts: consecutive laps are contiguous, so they sum to the total.
  double Lap() {
    const Clock::time_point now = Clock::now();
    const double seconds = std::chrono::duration<double>(now - start_).count();
    start_ = now;
    return seconds;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// \brief Accumulates elapsed time into a double on destruction. Useful for
/// attributing time to phases inside a larger computation.
class ScopedTimer {
 public:
  explicit ScopedTimer(double* sink) : sink_(sink) {}
  ~ScopedTimer() {
    if (sink_ != nullptr) *sink_ += timer_.ElapsedSeconds();
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  double* sink_;
  WallTimer timer_;
};

}  // namespace haten2

#endif  // HATEN2_UTIL_TIMER_H_
