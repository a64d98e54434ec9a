#ifndef HATEN2_MAPREDUCE_ENGINE_H_
#define HATEN2_MAPREDUCE_ENGINE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "mapreduce/cluster.h"
#include "mapreduce/shuffle.h"
#include "mapreduce/stats.h"
#include "util/memory_tracker.h"
#include "util/result.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace haten2 {

/// A job's output as Engine::RunPartitioned returns it: one vector of
/// reducer outputs per reduce partition, in partition order.
template <typename K, typename V>
using PartitionedOutput = std::vector<std::vector<std::pair<K, V>>>;

/// \brief In-process MapReduce engine with Hadoop-shaped semantics.
///
/// A job is (reader, reducer, optional combiner):
///   - the reader is invoked once per input record index and emits
///     intermediate (K, V) pairs — it plays the role of the MAP function
///     over whatever input representation the caller holds (HaTen2 jobs map
///     directly over SparseTensor entries plus factor-matrix rows, exactly
///     as the paper's MAP pseudo-code reads tensor and matrix records);
///   - intermediate pairs are hash-partitioned into
///     ClusterConfig::EffectiveReduceTasks() partitions and grouped by a
///     sort-merge (mapreduce/shuffle.h): the reducer is invoked once per
///     distinct key, keys ascending, with the key's values in (map task,
///     emission) order;
///   - the optional combiner (an associative fold over V) runs at the end of
///     each map task, like a Hadoop combiner;
///   - the reducer outputs come back one vector per reduce partition
///     (RunPartitioned), or concatenated partition-ascending (Run).
///
/// Every job appends JobStats (shuffled records/bytes = the paper's
/// *intermediate data*) to the engine's pipeline log. Shuffled bytes are
/// charged against ClusterConfig::total_shuffle_memory_bytes; exceeding the
/// budget fails the job with kResourceExhausted ("o.o.m."), reproducing the
/// intermediate-data-explosion failures of Figures 1 and 7.
///
/// Map tasks, combiners and reduce partitions run on the engine's thread
/// pool (RunInProcess below), split by the job's JobShape and run with the
/// task-level pieces of mapreduce/shuffle.h (RunMapTask, FoldMapReports,
/// MapPhaseFailure, ReducePartition).
class Engine {
 public:
  explicit Engine(const ClusterConfig& config)
      : config_(config),
        init_status_(config.Validate()),
        pool_(static_cast<size_t>(std::max(1, config.num_threads))),
        tracker_(config.total_shuffle_memory_bytes == 0
                     ? MemoryTracker::kUnlimited
                     : config.total_shuffle_memory_bytes) {}

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const ClusterConfig& config() const { return config_; }
  MemoryTracker& memory() { return tracker_; }

  /// Log of every job executed since the last ClearPipeline(), in job-id
  /// order.
  ///
  /// The returned reference is only safe to read while no Run() call or
  /// plan is in flight; under concurrent scheduling use PipelineSnapshot().
  const PipelineStats& pipeline() const { return pipeline_; }

  /// Locked copy of the pipeline log — safe to take while jobs are running
  /// on other threads (each completed job appears atomically).
  PipelineStats PipelineSnapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pipeline_;
  }

  /// Locked copy restricted to jobs with job_id >= first_job_id and plans
  /// with plan_id >= first_plan_id. This is how drivers attribute work to
  /// one ALS iteration: by the NextJobId() / NextPlanId() watermarks taken
  /// before it, which are stable under concurrent scheduling, rather than
  /// by position in the log. Plans are selected by their own id, so plans
  /// that run no engine job (the in-core path, failed plans) land in the
  /// window they were scheduled in, and only there.
  PipelineStats PipelineSince(int64_t first_job_id,
                              int64_t first_plan_id) const {
    std::lock_guard<std::mutex> lock(mu_);
    PipelineStats out;
    for (const JobStats& j : pipeline_.jobs) {
      if (j.job_id >= first_job_id) out.jobs.push_back(j);
    }
    for (const PlanStats& p : pipeline_.plans) {
      if (p.plan_id >= first_plan_id) out.plans.push_back(p);
    }
    return out;
  }

  void ClearPipeline() {
    std::lock_guard<std::mutex> lock(mu_);
    pipeline_.Clear();
  }

  /// The lowest job id not yet taken or reserved. Taken before a batch of
  /// work, it is the job watermark PipelineSince() filters by: every job of
  /// the batch, plan-reserved ones included, gets an id at least this large.
  int64_t NextJobId() const {
    return job_sequence_.load(std::memory_order_relaxed);
  }

  /// Reserves `count` consecutive job ids and returns the first.
  /// PlanScheduler reserves one per plan node before the plan runs, so a
  /// node's job id is the first plus its index, whichever thread runs it.
  int64_t TakeJobIds(int64_t count) {
    return job_sequence_.fetch_add(count, std::memory_order_relaxed);
  }

  /// The id the next scheduled plan will receive: the plan watermark
  /// PipelineSince() filters by.
  int64_t NextPlanId() const {
    return plan_sequence_.load(std::memory_order_relaxed);
  }

  /// Assigns the next plan id (PlanScheduler takes one per plan).
  int64_t TakePlanId() {
    return plan_sequence_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Appends one scheduled plan's statistics to the pipeline log.
  void RecordPlan(const PlanStats& stats) {
    std::lock_guard<std::mutex> lock(mu_);
    pipeline_.plans.push_back(stats);
  }

  /// Accounts one lookup of the iteration-invariant input-scan cache
  /// (core/contract.h ContractCache) against the pipeline log.
  void NoteInvariantCache(bool hit) {
    std::lock_guard<std::mutex> lock(mu_);
    if (hit) {
      ++pipeline_.invariant_cache_hits;
    } else {
      ++pipeline_.invariant_cache_misses;
    }
  }

  /// \brief RAII plan-node context for the current thread.
  ///
  /// While alive, the engine job this thread runs is tagged with `plan_id`,
  /// gets the node's reserved `job_id` and appends it to `sink` (the node's
  /// job list); a second job fails with kFailedPrecondition. The scheduler
  /// instantiates one around each node executor; scopes nest (the previous
  /// context is restored on destruction).
  class PlanScope {
   public:
    PlanScope(int64_t plan_id, int64_t job_id, std::vector<int64_t>* sink)
        : plan_id_(plan_id), job_id_(job_id), sink_(sink), prev_(current_) {
      current_ = this;
    }
    ~PlanScope() { current_ = prev_; }
    PlanScope(const PlanScope&) = delete;
    PlanScope& operator=(const PlanScope&) = delete;

   private:
    friend class Engine;
    int64_t plan_id_;
    int64_t job_id_;
    std::vector<int64_t>* sink_;
    PlanScope* prev_;
    /// thread_local (rather than an Engine member) because the scheduler
    /// runs node executors on its own threads while unrelated threads may
    /// call Run() directly on the same engine — those direct jobs must stay
    /// untagged (plan_id -1) and take fresh ids.
    inline static thread_local PlanScope* current_ = nullptr;
  };

  /// Runs one MapReduce job.
  ///
  /// \tparam KMid/VMid intermediate key/value (trivially copyable);
  ///         KOut/VOut output key/value.
  /// \param name      job name for the stats log.
  /// \param num_input_records  reader is called for indices [0, n).
  /// \param reader    void(int64_t index, ShuffleEmitter<KMid, VMid>*).
  /// \param reducer   void(const KMid&, std::vector<VMid>&,
  ///                       OutputEmitter<KOut, VOut>*).
  /// \param combiner  optional VMid(const VMid&, const VMid&), associative.
  /// \returns the concatenated reducer outputs: partition-ascending, with
  ///          keys ascending within each partition.
  ///
  /// A thin wrapper over RunPartitioned: the concatenation happens after
  /// the job's pipeline record, so no phase time includes it.
  template <typename KMid, typename VMid, typename KOut, typename VOut,
            typename ReaderFn, typename ReduceFn>
  Result<std::vector<std::pair<KOut, VOut>>> Run(
      const std::string& name, int64_t num_input_records, ReaderFn&& reader,
      ReduceFn&& reducer,
      std::function<VMid(const VMid&, const VMid&)> combiner = nullptr) {
    HATEN2_ASSIGN_OR_RETURN(
        auto parts,
        (RunPartitioned<KMid, VMid, KOut, VOut>(name, num_input_records,
                                                reader, reducer,
                                                std::move(combiner))));
    std::vector<std::pair<KOut, VOut>> output;
    size_t total = 0;
    for (const auto& part : parts) total += part.size();
    output.reserve(total);
    for (auto& part : parts) {
      for (auto& rec : part) output.push_back(std::move(rec));
    }
    return output;
  }

  /// Runs one MapReduce job, as Run does, but returns each reduce
  /// partition's output on its own, in partition order — Hadoop's
  /// part-r-NNNNN files, each keys ascending. A job whose output feeds
  /// another job hands these on as the next job's ordered input runs rather
  /// than concatenating them. Each partition's vector is shrunk to fit.
  ///
  /// RunInProcess runs the job's tasks; this method owns the job id (see
  /// TakeJobId), the job's shape, the counters (folded from the tasks'
  /// MapTaskReports), the wall time, and the one pipeline-log record.
  template <typename KMid, typename VMid, typename KOut, typename VOut,
            typename ReaderFn, typename ReduceFn>
  Result<PartitionedOutput<KOut, VOut>> RunPartitioned(
      const std::string& name, int64_t num_input_records, ReaderFn&& reader,
      ReduceFn&& reducer,
      std::function<VMid(const VMid&, const VMid&)> combiner = nullptr) {
    // Byte accounting (and hence the o.o.m. semantics) relies on fixed-size
    // intermediate records, mirroring Hadoop's serialized Writables.
    static_assert(IsFixedSizeRecord<KMid>::value,
                  "intermediate keys must be fixed-size records");
    static_assert(IsFixedSizeRecord<VMid>::value,
                  "intermediate values must be fixed-size records");
    using Output = PartitionedOutput<KOut, VOut>;
    // Fail fast on an invalid cluster configuration (the constructor cannot
    // return a Status): a zero bandwidth or negative slot count would
    // otherwise surface only as Inf/NaN simulated seconds in stats JSON.
    if (!init_status_.ok()) return init_status_;
    WallTimer timer;
    JobStats stats;
    stats.name = name;
    stats.map_input_records = num_input_records;
    // The id keys the failure-injection decisions.
    HATEN2_ASSIGN_OR_RETURN(stats.job_id, TakeJobId(name));
    stats.plan_id =
        PlanScope::current_ != nullptr ? PlanScope::current_->plan_id_ : -1;

    // The counters are sized before the job runs, so a failed job reports
    // its task and partition counts (zero-filled where nothing ran).
    const JobShape shape(config_, num_input_records);
    std::vector<MapTaskReport> reports(static_cast<size_t>(shape.num_tasks));
    stats.reduce_partition_records.assign(
        static_cast<size_t>(shape.num_partitions), 0);
    stats.reduce_partition_bytes.assign(
        static_cast<size_t>(shape.num_partitions), 0);
    Result<Output> result = RunInProcess<KMid, VMid, KOut, VOut>(
        shape, reader, reducer, combiner, &reports, &stats);
    // Post-mortem stats describe failed runs (the paper's o.o.m. deaths) as
    // faithfully as successful ones.
    FoldMapReports(reports, ShuffleEmitter<KMid, VMid>::kRecordBytes, &stats);
    stats.wall_seconds = timer.ElapsedSeconds();
    RecordJob(stats);
    return result;
  }

 private:
  /// Runs a job's phases: map tasks, combiners and reduce partitions run on
  /// the engine's thread pool, and every run stays in this process.
  template <typename KMid, typename VMid, typename KOut, typename VOut,
            typename ReaderFn, typename ReduceFn>
  Result<PartitionedOutput<KOut, VOut>> RunInProcess(
      const JobShape& shape, ReaderFn& reader, ReduceFn& reducer,
      const std::function<VMid(const VMid&, const VMid&)>& combiner,
      std::vector<MapTaskReport>* reports, JobStats* stats) {
    constexpr uint64_t kRecordBytes = ShuffleEmitter<KMid, VMid>::kRecordBytes;
    const size_t num_tasks = static_cast<size_t>(shape.num_tasks);
    const size_t num_partitions = static_cast<size_t>(shape.num_partitions);
    const std::string& name = stats->name;
    WallTimer phase_timer;

    // ---- Map phase ----
    std::vector<ShuffleEmitter<KMid, VMid>> emitters;
    emitters.reserve(num_tasks);
    for (size_t t = 0; t < num_tasks; ++t) {
      emitters.emplace_back(shape.num_partitions, &tracker_);
    }
    pool_.ParallelFor(num_tasks, [&](size_t t) {
      (*reports)[t] = RunMapTask(config_, stats->job_id, static_cast<int>(t),
                                 shape, reader, &emitters[t]);
    });
    stats->phases.map_seconds = phase_timer.Lap();

    // Everything the emitters charged is released when the job ends.
    auto release_all = [this, &emitters] {
      for (auto& em : emitters) tracker_.Release(em.charged_bytes());
    };
    Status map_failure =
        MapPhaseFailure(name, MapReportFlags(*reports), stats);
    if (!map_failure.ok()) {
      release_all();
      return map_failure;
    }

    // ---- Combine phase (per map task, per partition) ----
    if (combiner) {
      pool_.ParallelFor(num_tasks, [&](size_t t) {
        CombineMapTask(combiner, &emitters[t], &(*reports)[t]);
      });
      stats->phases.combine_seconds = phase_timer.Lap();
    }

    // ---- Shuffle phase (parallel over partitions): count what each
    // reduce partition receives from the map tasks' buffers. ----
    pool_.ParallelFor(num_partitions, [&](size_t p) {
      int64_t received = 0;
      for (auto& em : emitters) {
        received += static_cast<int64_t>(em.buffers()[p].size());
      }
      stats->reduce_partition_records[p] = received;
      stats->reduce_partition_bytes[p] =
          static_cast<uint64_t>(received) * kRecordBytes;
    });
    stats->phases.shuffle_seconds = phase_timer.Lap();

    // ---- Reduce phase (parallel over partitions): sort-merge grouping. ----
    // Each partition's output is shrunk to fit: it outlives the job (a
    // downstream job reads it), and its growth slack would otherwise stay
    // resident with it.
    PartitionedOutput<KOut, VOut> outputs(num_partitions);
    std::vector<int64_t> partition_group_counts(num_partitions, 0);
    pool_.ParallelFor(num_partitions, [&](size_t p) {
      std::vector<std::span<const std::pair<KMid, VMid>>> runs;
      runs.reserve(emitters.size());
      for (auto& em : emitters) runs.emplace_back(em.buffers()[p]);
      OutputEmitter<KOut, VOut> out;
      partition_group_counts[p] = ReducePartition(runs, reducer, &out);
      outputs[p] = std::move(out.records());
      outputs[p].shrink_to_fit();
      for (auto& em : emitters) {  // free as we go
        em.buffers()[p].clear();
        em.buffers()[p].shrink_to_fit();
      }
    });

    for (size_t p = 0; p < num_partitions; ++p) {
      stats->reduce_input_groups += partition_group_counts[p];
      stats->reduce_output_records += static_cast<int64_t>(outputs[p].size());
    }
    stats->phases.reduce_seconds = phase_timer.Lap();
    release_all();
    return outputs;
  }

  /// A starting job's id: the one its plan node reserved, or the next free
  /// one outside any plan. Fails, before anything is allocated, when the
  /// node already ran a job.
  Result<int64_t> TakeJobId(const std::string& name) {
    PlanScope* scope = PlanScope::current_;
    if (scope == nullptr) {
      return job_sequence_.fetch_add(1, std::memory_order_relaxed);
    }
    if (!scope->sink_->empty()) {
      return Status::FailedPrecondition(StrFormat(
          "job '%s': its plan node already ran job %lld, and a plan node "
          "runs at most one engine job",
          name.c_str(), static_cast<long long>(scope->sink_->front())));
    }
    scope->sink_->push_back(scope->job_id_);
    return scope->job_id_;
  }

  /// Inserts in job-id order: concurrent plan nodes finish in any order.
  void RecordJob(const JobStats& stats) {
    std::lock_guard<std::mutex> lock(mu_);
    auto pos = std::upper_bound(
        pipeline_.jobs.begin(), pipeline_.jobs.end(), stats.job_id,
        [](int64_t id, const JobStats& j) { return id < j.job_id; });
    pipeline_.jobs.insert(pos, stats);
  }

  ClusterConfig config_;
  /// Result of config_.Validate(), taken at construction and returned by
  /// every Run() when not OK.
  Status init_status_;
  ThreadPool pool_;
  MemoryTracker tracker_;
  PipelineStats pipeline_;
  mutable std::mutex mu_;
  std::atomic<int64_t> job_sequence_{0};
  std::atomic<int64_t> plan_sequence_{0};
};

}  // namespace haten2

#endif  // HATEN2_MAPREDUCE_ENGINE_H_
