#include "mapreduce/scheduler.h"

#include <algorithm>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "util/timer.h"

namespace haten2 {
namespace {

/// Longest dependency-chain sum of node seconds over the nodes that ran:
/// the lower bound on the plan's wall time with infinite workers.
double CriticalPathSeconds(const PlanStats& stats) {
  std::vector<double> cp(stats.nodes.size(), 0.0);
  double best = 0.0;
  // Nodes are stored in topological order (deps reference lower indices),
  // so one forward pass computes the longest path ending at each node.
  for (size_t i = 0; i < stats.nodes.size(); ++i) {
    const PlanNodeStats& n = stats.nodes[i];
    if (n.status == "skipped") continue;
    double longest_dep = 0.0;
    for (int d : n.deps) {
      longest_dep = std::max(longest_dep, cp[static_cast<size_t>(d)]);
    }
    cp[i] = n.seconds + longest_dep;
    best = std::max(best, cp[i]);
  }
  return best;
}

void FinalizeStats(PlanStats* stats, double wall_seconds) {
  stats->wall_seconds = wall_seconds;
  stats->critical_path_seconds = CriticalPathSeconds(*stats);
  stats->total_node_seconds = 0.0;
  for (const PlanNodeStats& n : stats->nodes) {
    stats->total_node_seconds += n.seconds;
  }
}

/// The ready-queue worker loop over every node of `plan`, run on the
/// calling thread plus min(max_concurrent, nodes) - 1 spawned threads.
/// Node i's engine job gets id `first_job_id + i`.
Status RunNodes(const Plan& plan, int64_t first_job_id, int max_concurrent,
                PlanStats* stats) {
  const int n = plan.size();
  struct Shared {
    std::mutex mu;
    std::condition_variable wake;
    // Lowest-index ready node first: a deterministic start order. Under cap
    // 1 every lower node has finished when a node is picked, so the plan
    // runs in node-index order.
    std::priority_queue<int, std::vector<int>, std::greater<int>> ready;
    std::vector<int> pending_deps;
    std::vector<std::vector<int>> dependents;
    int completed = 0;
    int running = 0;
    bool stop_launching = false;
    int failed_node = -1;  // lowest-index failure seen so far
    Status failure = Status::OK();
  } shared;

  shared.pending_deps.resize(static_cast<size_t>(n));
  shared.dependents.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const JobSpec& spec = plan.nodes()[static_cast<size_t>(i)];
    shared.pending_deps[static_cast<size_t>(i)] =
        static_cast<int>(spec.deps.size());
    for (int d : spec.deps) shared.dependents[static_cast<size_t>(d)].push_back(i);
    if (spec.deps.empty()) shared.ready.push(i);
  }

  // Never the engine's pool: node executors call Engine::Run, which fans
  // out onto that pool — running executors *on* it would deadlock once
  // every pool worker is parked inside a node.
  auto worker = [&]() {
    std::unique_lock<std::mutex> lock(shared.mu);
    while (true) {
      // Sleep until there is something to launch or nothing ever will be:
      // in a valid DAG, empty ready + nothing running means the plan is
      // complete (completed == n) or launching stopped after a failure.
      shared.wake.wait(lock, [&] {
        return shared.stop_launching || !shared.ready.empty() ||
               shared.completed == n;
      });
      if (shared.stop_launching || shared.completed == n) return;
      if (shared.ready.empty()) continue;  // a peer claimed the wakeup
      const int i = shared.ready.top();
      shared.ready.pop();
      ++shared.running;
      stats->max_observed_concurrency =
          std::max(stats->max_observed_concurrency, shared.running);
      PlanNodeStats& node = stats->nodes[static_cast<size_t>(i)];
      lock.unlock();

      Status s;
      {
        Engine::PlanScope scope(stats->plan_id, first_job_id + i,
                                &node.job_ids);
        WallTimer node_timer;
        s = plan.nodes()[static_cast<size_t>(i)].run();
        node.seconds = node_timer.ElapsedSeconds();
      }

      lock.lock();
      --shared.running;
      ++shared.completed;
      if (s.ok()) {
        node.status = "ok";
        for (int dep : shared.dependents[static_cast<size_t>(i)]) {
          if (--shared.pending_deps[static_cast<size_t>(dep)] == 0) {
            shared.ready.push(dep);
          }
        }
      } else {
        node.status = "failed";
        if (shared.failed_node < 0 || i < shared.failed_node) {
          shared.failed_node = i;
          shared.failure = s;
        }
        shared.stop_launching = true;
      }
      shared.wake.notify_all();
    }
  };

  const int num_workers = std::min(max_concurrent, n);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(num_workers - 1));
  for (int t = 1; t < num_workers; ++t) threads.emplace_back(worker);
  worker();
  for (std::thread& t : threads) t.join();
  return shared.failure;
}

}  // namespace

PlanScheduler::PlanScheduler(Engine* engine, int max_concurrent)
    : engine_(engine),
      max_concurrent_(max_concurrent > 0
                          ? max_concurrent
                          : std::max(1, engine->config().max_concurrent_jobs)) {
}

Status PlanScheduler::Execute(const Plan& plan) {
  if (!plan.build_status().ok()) return plan.build_status();
  if (plan.empty()) return Status::OK();

  PlanStats stats;
  stats.plan_id = engine_->TakePlanId();
  // One id per node, reserved before any node starts, so which job gets
  // which id does not depend on thread timing.
  const int64_t first_job_id = engine_->TakeJobIds(plan.size());
  stats.name = plan.name();
  stats.concurrency_limit = max_concurrent_;
  stats.nodes.reserve(plan.nodes().size());
  for (const JobSpec& spec : plan.nodes()) {
    PlanNodeStats n;
    n.label = spec.label;
    n.deps = spec.deps;
    n.contraction_strategy = spec.contraction_strategy;
    stats.nodes.push_back(std::move(n));
  }

  WallTimer timer;
  Status status = RunNodes(plan, first_job_id, max_concurrent_, &stats);
  // In-core contraction executors report their phase split through the
  // spec's timing sink; harvest it after the run (failure paths included —
  // a node that died mid-evaluate still shows its layout time).
  for (size_t i = 0; i < stats.nodes.size(); ++i) {
    const JobSpec& spec = plan.nodes()[i];
    if (spec.contraction_timing != nullptr) {
      stats.nodes[i].layout_build_seconds =
          spec.contraction_timing->layout_build_seconds;
      stats.nodes[i].evaluate_seconds =
          spec.contraction_timing->evaluate_seconds;
    }
  }
  FinalizeStats(&stats, timer.ElapsedSeconds());
  engine_->RecordPlan(stats);
  return status;
}

}  // namespace haten2
