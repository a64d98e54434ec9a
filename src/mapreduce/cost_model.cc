#include "mapreduce/cost_model.h"

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <queue>

#include "mapreduce/hash.h"

namespace haten2 {

namespace {

// 53-bit uniform in [0, 1) from a mixed hash — the same construction the
// engine's failure injection uses (shuffle.h, ShouldFailMapAttempt).
double UniformFromHash(uint64_t h) {
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

struct Slot {
  int id = 0;
  double speed = 1.0;
  double failure_multiplier = 1.0;
  bool busy = false;
};

// One running (or finished/killed) execution of a task: the primary copy, or
// the speculative backup.
struct Copy {
  int task = -1;
  int slot = -1;
  double start = 0.0;
  double finish = 0.0;
  bool backup = false;
  bool dead = false;
};

struct Event {
  double time = 0.0;
  int copy = -1;
  // Min-heap order; ties broken by copy id so the event sequence is fully
  // deterministic.
  bool operator>(const Event& o) const {
    if (time != o.time) return time > o.time;
    return copy > o.copy;
  }
};

// Lower median (no averaging, so threshold comparisons stay exact in tests).
double LowerMedian(std::vector<double> v) {
  size_t mid = (v.size() - 1) / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(mid),
                   v.end());
  return v[mid];
}

}  // namespace

uint64_t CostModel::EstimateInCoreLayoutBytes(int64_t nnz, int num_streams) {
  if (nnz < 0) nnz = 0;
  if (num_streams < 1) num_streams = 1;
  const uint64_t per_entry =
      16 +                                        // value + inner index
      8 * static_cast<uint64_t>(num_streams) +    // fiber offset + outer coords
      16;                                         // slice id + fiber offset
  return static_cast<uint64_t>(nnz) * per_entry + 4096;
}

double CostModel::Makespan(std::vector<double> task_costs, int workers) {
  if (task_costs.empty()) return 0.0;
  if (workers < 1) workers = 1;
  std::sort(task_costs.begin(), task_costs.end(), std::greater<double>());
  // Min-heap of worker loads.
  std::priority_queue<double, std::vector<double>, std::greater<double>> loads;
  for (int w = 0; w < workers; ++w) loads.push(0.0);
  for (double c : task_costs) {
    double lightest = loads.top();
    loads.pop();
    loads.push(lightest + c);
  }
  double makespan = 0.0;
  while (!loads.empty()) {
    makespan = std::max(makespan, loads.top());
    loads.pop();
  }
  return makespan;
}

PhaseSim CostModel::SimulateTaskPhase(const std::vector<TaskWork>& tasks,
                                      int slots_per_machine,
                                      uint64_t salt) const {
  PhaseSim sim;
  if (tasks.empty()) return sim;

  // Mirror the legacy Makespan clamp: a degenerate config still simulates on
  // one machine with one slot rather than dividing by zero.
  int machines = std::max(1, config_.num_machines);
  int per_machine = std::max(1, slots_per_machine);
  std::vector<Slot> slots;
  slots.reserve(static_cast<size_t>(machines) *
                static_cast<size_t>(per_machine));
  for (int m = 0; m < machines; ++m) {
    MachineProfile p = config_.ProfileOf(m);
    for (int s = 0; s < per_machine; ++s) {
      Slot sl;
      sl.id = static_cast<int>(slots.size());
      sl.speed = p.speed_factor;
      sl.failure_multiplier = p.failure_multiplier;
      slots.push_back(sl);
    }
  }

  // Dispatch order: longest reference-machine duration first (ties by task
  // index). On a uniform cluster this is exactly the LPT list schedule.
  std::vector<int> order(tasks.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> nominal(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    const TaskWork& w = tasks[i];
    nominal[i] =
        w.cpu_once *
            (1.0 + static_cast<double>(std::max(1, w.attempts) - 1) * 1.0) +
        w.disk_once;
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (nominal[a] != nominal[b]) return nominal[a] > nominal[b];
    return a < b;
  });

  // Per-copy latency jitter: deterministic in (seed, salt, task, copy), so
  // identical configs reproduce bit-identical schedules. Exactly 1.0 when
  // jitter is disabled — durations are then pure profile-scaled costs.
  auto jitter = [&](int task, int copy) {
    if (config_.straggler_jitter == 0.0) return 1.0;
    uint64_t h = Mix64(config_.straggler_jitter_seed ^
                       Mix64(salt * 1000003ull +
                             static_cast<uint64_t>(task) * 2ull +
                             static_cast<uint64_t>(copy)));
    return 1.0 + config_.straggler_jitter * UniformFromHash(h);
  };
  // Re-execution is CPU only (failed attempts never spilled — failure
  // injection decides before any work runs), scaled by the hosting
  // machine's failure multiplier; the whole task is scaled by its speed.
  auto duration = [&](const TaskWork& w, const Slot& sl, int task, int copy) {
    double cpu =
        w.cpu_once * (1.0 + static_cast<double>(std::max(1, w.attempts) - 1) *
                                sl.failure_multiplier);
    return (cpu + w.disk_once) / sl.speed * jitter(task, copy);
  };

  std::vector<Copy> copies;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events;
  std::vector<int> primary(tasks.size(), -1);
  std::vector<int> backup(tasks.size(), -1);
  std::vector<char> done(tasks.size(), 0);
  std::vector<double> finished;  // winning-copy durations, for the median
  size_t next = 0;               // next undispatched entry of `order`

  auto fastest_idle = [&]() {
    int best = -1;
    for (const Slot& sl : slots) {
      if (sl.busy) continue;
      if (best < 0 || sl.speed > slots[best].speed) best = sl.id;
    }
    return best;
  };
  auto launch = [&](int task, int slot_id, double now, bool is_backup) {
    Copy c;
    c.task = task;
    c.slot = slot_id;
    c.start = now;
    c.backup = is_backup;
    c.finish =
        now + duration(tasks[task], slots[slot_id], task, is_backup ? 1 : 0);
    slots[slot_id].busy = true;
    int cid = static_cast<int>(copies.size());
    copies.push_back(c);
    (is_backup ? backup : primary)[task] = cid;
    events.push(Event{c.finish, cid});
  };
  auto dispatch = [&](double now) {
    // Pending primaries always outrank speculation for slots.
    while (next < order.size()) {
      int slot_id = fastest_idle();
      if (slot_id < 0) return;
      launch(order[next++], slot_id, now, false);
    }
    if (!config_.speculative_execution || finished.empty()) return;
    // Backup the worst straggler: the running primary (without a backup)
    // whose expected remaining time most exceeds slowstart x the median
    // finished duration. Backups only ever use otherwise-idle slots, so
    // speculation can never increase the makespan in this model.
    double threshold = config_.speculation_slowstart * LowerMedian(finished);
    while (true) {
      int slot_id = fastest_idle();
      if (slot_id < 0) return;
      int victim = -1;
      double victim_remaining = 0.0;
      for (size_t t = 0; t < tasks.size(); ++t) {
        if (done[t] || primary[t] < 0 || backup[t] >= 0) continue;
        double remaining = copies[static_cast<size_t>(primary[t])].finish - now;
        if (remaining > threshold &&
            (victim < 0 || remaining > victim_remaining)) {
          victim = static_cast<int>(t);
          victim_remaining = remaining;
        }
      }
      if (victim < 0) return;
      launch(victim, slot_id, now, true);
      ++sim.speculation.speculated;
    }
  };

  double makespan = 0.0;
  dispatch(0.0);
  while (!events.empty()) {
    Event e = events.top();
    events.pop();
    if (copies[static_cast<size_t>(e.copy)].dead) continue;  // killed copy
    Copy c = copies[static_cast<size_t>(e.copy)];
    double now = e.time;
    slots[static_cast<size_t>(c.slot)].busy = false;
    done[static_cast<size_t>(c.task)] = 1;
    finished.push_back(c.finish - c.start);
    if (c.backup) ++sim.speculation.won;
    // Kill-on-first-finish: the losing sibling stops now, freeing its slot;
    // the time it ran is the speculation waste.
    int other = c.backup ? primary[static_cast<size_t>(c.task)]
                         : backup[static_cast<size_t>(c.task)];
    if (other >= 0) {
      Copy& loser = copies[static_cast<size_t>(other)];
      loser.dead = true;
      slots[static_cast<size_t>(loser.slot)].busy = false;
      sim.speculation.wasted_seconds += now - loser.start;
    }
    primary[static_cast<size_t>(c.task)] = -1;
    backup[static_cast<size_t>(c.task)] = -1;
    makespan = std::max(makespan, now);
    dispatch(now);
  }
  sim.seconds = makespan;
  return sim;
}

JobSim CostModel::SimulateJobDetailed(const JobStats& stats) const {
  JobSim sim;
  // Distinct jitter streams per job and per phase (map = salt, reduce =
  // salt + 1).
  uint64_t salt = static_cast<uint64_t>(stats.job_id + 1) * 2ull;

  // Map tasks: CPU per record plus the disk time of the bytes the task
  // actually spilled (post-codec width). An in-memory shuffle spills
  // nothing and pays no disk bandwidth. Re-executed attempts are charged
  // CPU only: failure injection fails an attempt before any work runs, so a
  // failed attempt never reached the spill path (the historical model
  // multiplied the disk term by the attempt count too).
  std::vector<TaskWork> map_tasks;
  map_tasks.reserve(stats.map_task_records.size());
  for (size_t t = 0; t < stats.map_task_records.size(); ++t) {
    TaskWork w;
    w.cpu_once = static_cast<double>(stats.map_task_records[t]) *
                 config_.map_seconds_per_record;
    w.disk_once = (t < stats.map_task_spilled_bytes.size()
                       ? static_cast<double>(stats.map_task_spilled_bytes[t])
                       : 0.0) /
                  config_.disk_bytes_per_second;
    w.attempts = t < stats.map_task_attempts.size()
                     ? std::max(1, stats.map_task_attempts[t])
                     : 1;
    map_tasks.push_back(w);
  }
  PhaseSim map_sim =
      SimulateTaskPhase(map_tasks, config_.map_slots_per_machine, salt);

  // Shuffle: aggregate bytes across the cluster's aggregate bandwidth.
  double shuffle_time =
      static_cast<double>(stats.map_output_bytes) /
      (config_.network_bytes_per_second *
       static_cast<double>(std::max(1, config_.num_machines)));

  // Reduce partitions: CPU per received record plus partition I/O. The
  // engine injects failures on map attempts only, so reduce tasks run once.
  std::vector<TaskWork> reduce_tasks;
  reduce_tasks.reserve(stats.reduce_partition_records.size());
  for (size_t p = 0; p < stats.reduce_partition_records.size(); ++p) {
    TaskWork w;
    w.cpu_once = static_cast<double>(stats.reduce_partition_records[p]) *
                 config_.reduce_seconds_per_record;
    w.disk_once = (p < stats.reduce_partition_bytes.size()
                       ? static_cast<double>(stats.reduce_partition_bytes[p])
                       : 0.0) /
                  config_.disk_bytes_per_second;
    reduce_tasks.push_back(w);
  }
  PhaseSim reduce_sim = SimulateTaskPhase(
      reduce_tasks, config_.reduce_slots_per_machine, salt + 1);

  sim.seconds = config_.job_startup_seconds + map_sim.seconds + shuffle_time +
                reduce_sim.seconds;
  sim.speculation = map_sim.speculation;
  sim.speculation.Add(reduce_sim.speculation);
  return sim;
}

double CostModel::SimulateJob(const JobStats& stats) const {
  return SimulateJobDetailed(stats).seconds;
}

PipelineSim CostModel::SimulatePipelineDetailed(
    const PipelineStats& stats) const {
  PipelineSim sim;
  for (const JobStats& j : stats.jobs) {
    JobSim job = SimulateJobDetailed(j);
    sim.seconds += job.seconds;
    sim.speculation.Add(job.speculation);
  }
  // Plan-level retry backoff is simulated cluster time: the in-process
  // engine never sleeps it, so it is charged here, where the retried jobs'
  // costs already accrued (each attempt's jobs appear in `jobs`).
  sim.seconds += stats.TotalNodeBackoffSeconds();
  return sim;
}

double CostModel::SimulatePipeline(const PipelineStats& stats) const {
  return SimulatePipelineDetailed(stats).seconds;
}

}  // namespace haten2
