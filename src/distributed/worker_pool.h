#ifndef HATEN2_DISTRIBUTED_WORKER_POOL_H_
#define HATEN2_DISTRIBUTED_WORKER_POOL_H_

// Pool of local worker processes for the subprocess Engine backend.
//
// Workers are fork() images of the coordinator, one gang per MapReduce job:
// the job's reader/reducer closures (which cannot be serialized) are valid
// in the children because fork copies the address space, exactly like an
// exec-less multiprocessing pool. The pool object itself is persistent —
// it owns the per-worker-slot statistics (tasks run, wire bytes, restarts)
// across jobs and the monitoring/restart policy: a slot whose process died
// abnormally (signal, nonzero exit, lost socket) is respawned for the next
// gang and its `restarts` counter incremented, which is the signal an
// operator reads in `haten2-stats-v10` per-worker counters during an
// incident (docs/OPERATIONS.md).

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "distributed/wire.h"
#include "util/result.h"

namespace haten2 {
namespace distributed {

/// Per-worker-slot counters exported as the `workers` array of
/// haten2-stats-v10 (additive over the engine's lifetime).
struct WorkerStats {
  int worker = 0;
  /// Map tasks this slot completed across all jobs.
  int64_t tasks = 0;
  /// Bytes the coordinator sent to / received from this slot.
  uint64_t wire_bytes_sent = 0;
  uint64_t wire_bytes_received = 0;
  /// Times this slot was respawned after its process died abnormally
  /// (crash, kill injection, lost socket) rather than exiting cleanly.
  int64_t restarts = 0;
};

/// \brief Spawns, monitors, and restarts the worker processes of the
/// subprocess backend.
///
/// Not thread-safe for gang operations: the engine serializes subprocess
/// jobs on one coordinator thread (StatsSnapshot alone may race with a
/// running gang and takes the internal lock).
class WorkerPool {
 public:
  explicit WorkerPool(int num_workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int num_workers() const { return static_cast<int>(slots_.size()); }

  /// Forks one child per slot. In each child, `child_main(fd, worker)` runs
  /// with `fd` the child end of that worker's socket pair, and the child
  /// _exit()s with its return value (0 = clean). Slots whose previous
  /// incarnation died abnormally are counted as restarts. Fails (leaving no
  /// gang) if a gang is already active or a fork/socketpair fails.
  Status SpawnGang(const std::function<int(int fd, int worker)>& child_main);

  bool gang_active() const { return gang_active_; }

  /// Coordinator-side channel to worker `w` of the active gang.
  WireChannel* channel(int w) { return slots_[static_cast<size_t>(w)].channel.get(); }

  /// Reaps the active gang and folds its channel byte counts into the slot
  /// stats. With `kill` true, workers still running are SIGKILLed first
  /// (deliberate termination — not counted as an abnormal death); workers
  /// found already dead with a signal or nonzero exit status are marked
  /// abnormal either way, so their next spawn counts as a restart.
  void FinishGang(bool kill);

  /// Records that the coordinator lost worker `w` of the active gang (its
  /// channel hit EOF, a broken frame or a timeout): the slot's next spawn
  /// counts as a restart. Call before FinishGang(kill=true) — a worker
  /// still exiting when the gang is reaped is SIGKILLed, and the reap
  /// alone would then take its death for a deliberate kill.
  void MarkLost(int w);

  /// Credits `tasks` completed map tasks to slot `w`.
  void NoteTasksCompleted(int w, int64_t tasks);

  /// One-shot worker-kill injection bookkeeping: called once per worker per
  /// job assignment, in worker order, with that worker's assigned map-task
  /// count. Returns the die_after_tasks value for the assignment — nonzero
  /// exactly once, for the worker whose cumulative assignment first reaches
  /// `knob` — and latches, so the node retry that follows the injected
  /// death runs clean. `knob` <= 0 disables.
  int64_t PlanKillInjection(int64_t knob, int64_t assigned_tasks);

  std::vector<WorkerStats> StatsSnapshot() const;

 private:
  struct Slot {
    pid_t pid = -1;
    std::unique_ptr<WireChannel> channel;
    /// Previous incarnation died abnormally; next spawn is a restart.
    bool needs_restart = false;
    WorkerStats stats;
  };

  std::vector<Slot> slots_;
  bool gang_active_ = false;
  int64_t injection_assigned_total_ = 0;
  bool injection_fired_ = false;
  mutable std::mutex mu_;
};

}  // namespace distributed
}  // namespace haten2

#endif  // HATEN2_DISTRIBUTED_WORKER_POOL_H_
