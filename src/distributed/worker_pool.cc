#include "distributed/worker_pool.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/string_util.h"

// TSan aborts by default when a multithreaded process forks; the engine
// always carries a thread pool, so the subprocess backend would be
// untestable under tools/check.sh thread without relaxing that. The fork
// children never spawn threads (a worker runs its map and reduce work
// sequentially), which is the case TSan's documentation blesses.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HATEN2_TSAN_FORK_OPTIONS 1
#endif
#endif
#if !defined(HATEN2_TSAN_FORK_OPTIONS) && defined(__SANITIZE_THREAD__)
#define HATEN2_TSAN_FORK_OPTIONS 1
#endif
#ifdef HATEN2_TSAN_FORK_OPTIONS
extern "C" const char* __tsan_default_options() {
  return "die_after_fork=0";
}
#endif

namespace haten2 {
namespace distributed {

WorkerPool::WorkerPool(int num_workers) {
  if (num_workers < 1) num_workers = 1;
  slots_.resize(static_cast<size_t>(num_workers));
  for (size_t w = 0; w < slots_.size(); ++w) {
    slots_[w].stats.worker = static_cast<int>(w);
  }
}

WorkerPool::~WorkerPool() {
  if (gang_active_) FinishGang(/*kill=*/true);
}

Status WorkerPool::SpawnGang(
    const std::function<int(int fd, int worker)>& child_main) {
  if (gang_active_) {
    return Status::Internal("WorkerPool: a gang is already active");
  }
  const size_t n = slots_.size();
  std::vector<int> parent_fds(n, -1);
  std::vector<int> child_fds(n, -1);
  auto close_all = [&] {
    for (size_t i = 0; i < n; ++i) {
      if (parent_fds[i] >= 0) ::close(parent_fds[i]);
      if (child_fds[i] >= 0) ::close(child_fds[i]);
    }
  };
  for (size_t w = 0; w < n; ++w) {
    Status s = MakeSocketPair(&parent_fds[w], &child_fds[w]);
    if (!s.ok()) {
      close_all();
      return s;
    }
  }

  // Buffered stdio written before fork would otherwise be flushed once per
  // child as well as by the coordinator.
  std::fflush(stdout);
  std::fflush(stderr);

  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t w = 0; w < n; ++w) {
      if (slots_[w].needs_restart) {
        ++slots_[w].stats.restarts;
        slots_[w].needs_restart = false;
      }
    }
  }

  for (size_t w = 0; w < n; ++w) {
    pid_t pid = ::fork();
    if (pid < 0) {
      Status s = Status::Internal(
          StrFormat("WorkerPool: fork failed for worker %zu: %s", w,
                    std::strerror(errno)));
      for (size_t k = 0; k < w; ++k) {
        ::kill(slots_[k].pid, SIGKILL);
        ::waitpid(slots_[k].pid, nullptr, 0);
        slots_[k].pid = -1;
      }
      close_all();
      return s;
    }
    if (pid == 0) {
      // Child: keep only this worker's child fd.
      for (size_t k = 0; k < n; ++k) {
        if (parent_fds[k] >= 0) ::close(parent_fds[k]);
        if (k != w && child_fds[k] >= 0) ::close(child_fds[k]);
      }
      int rc = child_main(child_fds[w], static_cast<int>(w));
      // _exit: never run the coordinator's atexit/static destructors (or
      // flush its stdio again) from a fork child.
      ::_exit(rc);
    }
    slots_[w].pid = pid;
  }
  for (size_t w = 0; w < n; ++w) {
    ::close(child_fds[w]);
    child_fds[w] = -1;
    slots_[w].channel = std::make_unique<WireChannel>(
        parent_fds[w], StrFormat("worker %zu", w));
    parent_fds[w] = -1;
  }
  gang_active_ = true;
  return Status::OK();
}

void WorkerPool::FinishGang(bool kill) {
  if (!gang_active_) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t w = 0; w < slots_.size(); ++w) {
    Slot& slot = slots_[w];
    if (slot.channel != nullptr) {
      slot.stats.wire_bytes_sent += slot.channel->bytes_sent();
      slot.stats.wire_bytes_received += slot.channel->bytes_received();
      // Closing the coordinator end unblocks a worker stuck reading, so a
      // non-killed reap below cannot hang on a confused child.
      slot.channel.reset();
    }
    if (slot.pid <= 0) continue;
    int status = 0;
    pid_t reaped = ::waitpid(slot.pid, &status, WNOHANG);
    if (reaped == slot.pid) {
      // Died on its own before we got here: abnormal unless a clean exit 0.
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        slot.needs_restart = true;
      }
    } else {
      if (kill) ::kill(slot.pid, SIGKILL);
      ::waitpid(slot.pid, &status, 0);
      // A deliberate SIGKILL from the coordinator is not a worker failure;
      // without `kill`, any unclean exit is.
      if (!kill && (!WIFEXITED(status) || WEXITSTATUS(status) != 0)) {
        slot.needs_restart = true;
      }
    }
    slot.pid = -1;
  }
  gang_active_ = false;
}

void WorkerPool::MarkLost(int w) {
  std::lock_guard<std::mutex> lock(mu_);
  slots_[static_cast<size_t>(w)].needs_restart = true;
}

void WorkerPool::NoteTasksCompleted(int w, int64_t tasks) {
  std::lock_guard<std::mutex> lock(mu_);
  slots_[static_cast<size_t>(w)].stats.tasks += tasks;
}

int64_t WorkerPool::PlanKillInjection(int64_t knob, int64_t assigned_tasks) {
  if (knob <= 0) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  int64_t die_after = 0;
  if (!injection_fired_ && injection_assigned_total_ < knob &&
      knob <= injection_assigned_total_ + assigned_tasks) {
    die_after = knob - injection_assigned_total_;
    injection_fired_ = true;
  }
  injection_assigned_total_ += assigned_tasks;
  return die_after;
}

std::vector<WorkerStats> WorkerPool::StatsSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<WorkerStats> out;
  out.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    WorkerStats s = slot.stats;
    // Fold in the live gang's traffic so a snapshot taken mid-run (or after
    // a run whose channels are still open) is not behind.
    if (slot.channel != nullptr) {
      s.wire_bytes_sent += slot.channel->bytes_sent();
      s.wire_bytes_received += slot.channel->bytes_received();
    }
    out.push_back(s);
  }
  return out;
}

}  // namespace distributed
}  // namespace haten2
