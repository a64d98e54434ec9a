#ifndef HATEN2_MAPREDUCE_PLAN_H_
#define HATEN2_MAPREDUCE_PLAN_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace haten2 {

/// \brief Phase breakdown of one in-core contraction node, filled by the
/// node's executor while it runs (core/incore_contraction.cc) and copied
/// into PlanNodeStats after the plan completes. Shared-pointer ownership
/// lets the plan builder hand the same timing sink to the executor closure
/// and to the annotated JobSpec.
struct ContractionTiming {
  /// Building (or fetching from the ContractCache) the compressed layout.
  double layout_build_seconds = 0.0;
  /// Running the SpMV / blocked-chain kernels over the layout.
  double evaluate_seconds = 0.0;
};

/// \brief One node of a dataflow Plan: a labelled unit of work plus the
/// indices of the nodes whose outputs it consumes.
///
/// `run` typically wraps one Engine::Run call (an HaTen2 MapReduce job);
/// assembly nodes that only concatenate upstream outputs are also valid. A
/// node runs at most one engine job: a second one fails with
/// kFailedPrecondition (see PlanScheduler).
/// The executor communicates data through slots owned by the plan builder
/// (see Plan::AddProducer), not through the scheduler: the plan layer
/// sequences work, it does not marshal records.
struct JobSpec {
  std::string label;
  /// Indices (into the plan's node list) of this node's inputs. Every
  /// dependency must already be added, which makes plans acyclic by
  /// construction.
  std::vector<int> deps;
  /// Executes the node. Runs on the thread that called
  /// PlanScheduler::Execute or on one it spawned, with an Engine::PlanScope
  /// installed, so the engine job it issues is tagged with the plan id and
  /// gets the node's reserved job id.
  std::function<Status()> run;
  /// Which contraction strategy produced this node ("dataflow" / "incore");
  /// empty for nodes that are not part of a contraction evaluation. Copied
  /// into PlanNodeStats so stats_json records the per-node choice.
  std::string contraction_strategy;
  /// Timing sink for in-core nodes (null otherwise); see ContractionTiming.
  std::shared_ptr<ContractionTiming> contraction_timing;
};

/// \brief A declarative job graph: typed nodes with explicit data
/// dependencies, built up-front and handed to a PlanScheduler.
///
/// Dependencies may only reference previously added nodes, so every Plan is
/// a DAG by construction — there is no cycle check because cycles cannot be
/// expressed. Malformed edges (negative or forward indices) poison the
/// builder: AddJob keeps accepting calls so construction code stays linear,
/// and PlanScheduler::Execute rejects the finished plan with the recorded
/// status.
///
/// \code
///   Plan plan("drn_mode1");
///   std::vector<Rec> h0, h1;
///   int a = plan.AddProducer<std::vector<Rec>>(
///       "hadamard_s0", {}, [&] { return RunHadamard(0); }, &h0);
///   int b = plan.AddProducer<std::vector<Rec>>(
///       "hadamard_s1", {}, [&] { return RunHadamard(1); }, &h1);
///   plan.AddJob("merge", {a, b}, [&] { return Merge(h0, h1); });
/// \endcode
class Plan {
 public:
  explicit Plan(std::string name) : name_(std::move(name)) {}

  Plan(const Plan&) = delete;
  Plan& operator=(const Plan&) = delete;
  Plan(Plan&&) = default;
  Plan& operator=(Plan&&) = default;

  /// Adds a node executing `run` after every node in `deps`. Returns the
  /// new node's index (the handle later nodes name it by), or -1 when a
  /// dependency index is invalid (the error is kept in build_status()).
  int AddJob(std::string label, std::vector<int> deps,
             std::function<Status()> run);

  /// Typed convenience over AddJob: `fn` produces a Result<T> whose value is
  /// moved into `*slot` on success. The slot must outlive plan execution and
  /// must only be read by nodes that declare this node as a dependency —
  /// the scheduler's completion ordering is what makes the write visible.
  template <typename T>
  int AddProducer(std::string label, std::vector<int> deps,
                  std::function<Result<T>()> fn, T* slot) {
    return AddJob(std::move(label), std::move(deps),
                  [fn = std::move(fn), slot]() -> Status {
                    Result<T> r = fn();
                    if (!r.ok()) return r.status();
                    *slot = std::move(r).value();
                    return Status::OK();
                  });
  }

  /// Tags node `index` with the contraction strategy that built it and, for
  /// in-core nodes, the timing sink its executor fills. Out-of-range indices
  /// (including the -1 an errored AddJob returned) are ignored — the plan is
  /// already poisoned via build_status() in that case.
  void AnnotateContraction(int index, std::string strategy,
                           std::shared_ptr<ContractionTiming> timing = nullptr) {
    if (index < 0 || index >= size()) return;
    nodes_[static_cast<size_t>(index)].contraction_strategy =
        std::move(strategy);
    nodes_[static_cast<size_t>(index)].contraction_timing = std::move(timing);
  }

  const std::string& name() const { return name_; }
  const std::vector<JobSpec>& nodes() const { return nodes_; }
  int size() const { return static_cast<int>(nodes_.size()); }
  bool empty() const { return nodes_.empty(); }

  /// OK unless an AddJob call named an invalid dependency.
  const Status& build_status() const { return build_status_; }

 private:
  std::string name_;
  std::vector<JobSpec> nodes_;
  Status build_status_ = Status::OK();
};

}  // namespace haten2

#endif  // HATEN2_MAPREDUCE_PLAN_H_
