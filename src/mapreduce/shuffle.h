#ifndef HATEN2_MAPREDUCE_SHUFFLE_H_
#define HATEN2_MAPREDUCE_SHUFFLE_H_

// The task-level half of a MapReduce job (mapreduce/engine.h runs the
// phases): Engine::RunPartitioned splits a job by its JobShape, runs each
// map task with RunMapTask (attempt draws, emitter, reader loop) and the
// combine fold, reduces each partition with the sort-merge grouping
// (ReducePartition), and folds the tasks' MapTaskReports into JobStats
// with FoldMapReports. As on Hadoop, combined runs are stably sorted by
// key, and reducers see keys ascending with each key's values in (map
// task, emission) order. That order follows from the data alone, so every
// task count and thread count feeds the reducers identical inputs.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "mapreduce/cluster.h"
#include "mapreduce/hash.h"
#include "mapreduce/stats.h"
#include "util/memory_tracker.h"
#include "util/radix_sort.h"
#include "util/result.h"

namespace haten2 {

/// Fixed-size record trait: byte accounting (and hence the o.o.m.
/// semantics) needs sizeof(T) to be the serialized size. std::pair of
/// fixed-size members qualifies even though the standard does not make it
/// trivially copyable.
template <typename T>
struct IsFixedSizeRecord : std::is_trivially_copyable<T> {};
template <typename A, typename B>
struct IsFixedSizeRecord<std::pair<A, B>>
    : std::conjunction<IsFixedSizeRecord<A>, IsFixedSizeRecord<B>> {};

/// Stably sorts a run of records by key: equal keys keep their order.
/// `int64_t` keys, and pairs of them (one pass on `.second`, then one on
/// `.first`), take the radix sort of util/radix_sort.h; every other key
/// type takes std::stable_sort. Both give the same order.
template <typename K, typename V>
void StableSortByKey(std::vector<std::pair<K, V>>* run) {
  using Record = std::pair<K, V>;
  if constexpr (std::is_same_v<K, int64_t>) {
    StableRadixSort(run, [](const Record& r) { return OrderedBits(r.first); });
  } else if constexpr (std::is_same_v<K, std::pair<int64_t, int64_t>>) {
    StableRadixSort(
        run, [](const Record& r) { return OrderedBits(r.first.second); });
    StableRadixSort(
        run, [](const Record& r) { return OrderedBits(r.first.first); });
  } else {
    std::stable_sort(run->begin(), run->end(),
                     [](const Record& a, const Record& b) {
                       return a.first < b.first;
                     });
  }
}

/// \brief Collects a map task's (key, value) emissions into per-reduce-
/// partition buffers (the in-process equivalent of the Hadoop shuffle
/// write path).
///
/// Emissions are charged incrementally against the engine's memory budget in
/// chunks; once the budget is exhausted the emitter enters a failed state and
/// silently drops further records — the engine then fails the whole job with
/// kResourceExhausted. This reproduces the paper's intermediate-data
/// explosion: a job whose shuffle exceeds cluster memory dies mid-flight.
///
/// Concurrent map tasks write to neighbouring emitters of one vector, and
/// each Emit updates the emitter's own counters, so every emitter starts a
/// cache line of its own. (Packed two to a line, they made
/// tucker_dataflow's decompose_s 8.6% slower on 2 threads of a 4-vCPU
/// host.)
template <typename K, typename V>
class alignas(64) ShuffleEmitter {
 public:
  using Record = std::pair<K, V>;
  static constexpr int64_t kChargeChunkRecords = 4096;
  /// Width of one intermediate record: sizeof(Record), padding included —
  /// what a resident partition buffer holds per record. The same width is
  /// charged against the shuffle budget and reported in every byte counter
  /// (docs/INTERNALS.md, Accounting).
  static constexpr uint64_t kRecordBytes = sizeof(Record);

  /// `tracker` meters the shuffle budget (nullptr: unmetered).
  ShuffleEmitter(int num_partitions, MemoryTracker* tracker)
      : buffers_(static_cast<size_t>(num_partitions)), tracker_(tracker) {}

  void Emit(const K& key, const V& value) {
    if (failed_) return;
    if (uncharged_records_ == kChargeChunkRecords) {
      if (!ChargePending()) return;
    }
    size_t p = static_cast<size_t>(ShuffleHash<K>()(key) % buffers_.size());
    buffers_[p].emplace_back(key, value);
    ++uncharged_records_;
  }

  /// Charges any pending records; returns false when the budget is blown.
  bool Flush() { return ChargePending(); }

  bool failed() const { return failed_; }
  uint64_t charged_bytes() const { return charged_bytes_; }

  int64_t TotalRecords() const {
    int64_t n = 0;
    for (const auto& b : buffers_) n += static_cast<int64_t>(b.size());
    return n;
  }

  std::vector<std::vector<Record>>& buffers() { return buffers_; }

 private:
  bool ChargePending() {
    if (failed_) return false;
    if (uncharged_records_ == 0) return true;
    uint64_t bytes = static_cast<uint64_t>(uncharged_records_) * kRecordBytes;
    if (tracker_ != nullptr && !tracker_->Charge(bytes).ok()) {
      failed_ = true;
      return false;
    }
    charged_bytes_ += bytes;
    uncharged_records_ = 0;
    return true;
  }

  std::vector<std::vector<Record>> buffers_;
  MemoryTracker* tracker_;
  int64_t uncharged_records_ = 0;
  uint64_t charged_bytes_ = 0;
  bool failed_ = false;
};

/// \brief Collects reducer output records.
template <typename K, typename V>
class OutputEmitter {
 public:
  void Emit(const K& key, V value) {
    out_.emplace_back(key, std::move(value));
  }
  std::vector<std::pair<K, V>>& records() { return out_; }

 private:
  std::vector<std::pair<K, V>> out_;
};

/// Folds duplicate keys of one partition buffer through the combiner,
/// exactly as a Hadoop combiner runs at the end of a map task: the buffer
/// is stably sorted by key and each run of equal keys folds, in emission
/// order, into one record.
template <typename K, typename V>
void CombineShuffleBuffer(std::vector<std::pair<K, V>>* buf,
                          const std::function<V(const V&, const V&)>& fold) {
  if (buf->size() <= 1) return;
  StableSortByKey(buf);
  size_t kept = 0;
  for (size_t i = 0; i < buf->size(); ++i) {
    if (kept > 0 && (*buf)[kept - 1].first == (*buf)[i].first) {
      (*buf)[kept - 1].second = fold((*buf)[kept - 1].second, (*buf)[i].second);
    } else {
      (*buf)[kept++] = (*buf)[i];
    }
  }
  buf->erase(buf->begin() + static_cast<std::ptrdiff_t>(kept), buf->end());
}

/// Groups one reduce partition by key and reduces it: the sort-merge
/// shuffle's reduce side. `runs` are the partition's records from every map
/// task, in task order, each holding every key's values in emission order.
/// An index of (key, value pointer) over them is stably sorted by key
/// (StableSortByKey: a radix sort for integer keys), so the records are not
/// copied, and `reducer(key, values, out)` is called once per distinct key,
/// keys ascending, with the key's values in (map task, emission) order in
/// one reused buffer. Returns the number of distinct keys.
template <typename K, typename V, typename KOut, typename VOut,
          typename ReduceFn>
int64_t ReducePartition(
    const std::vector<std::span<const std::pair<K, V>>>& runs,
    ReduceFn& reducer, OutputEmitter<KOut, VOut>* out) {
  std::vector<std::pair<K, const V*>> index;
  size_t total = 0;
  for (const auto& run : runs) total += run.size();
  index.reserve(total);
  for (const auto& run : runs) {
    for (const auto& rec : run) index.emplace_back(rec.first, &rec.second);
  }
  StableSortByKey(&index);
  std::vector<V> values;
  int64_t groups = 0;
  for (size_t i = 0; i < index.size(); ++groups) {
    const K& key = index[i].first;
    values.clear();
    for (; i < index.size() && index[i].first == key; ++i) {
      values.push_back(*index[i].second);
    }
    reducer(key, values, out);
  }
  return groups;
}

/// How a job splits into tasks: map task t reads input records
/// [t * chunk, min((t + 1) * chunk, num_input_records)), and intermediate
/// keys hash into num_partitions reduce partitions.
struct JobShape {
  JobShape(const ClusterConfig& config, int64_t num_input_records)
      : num_input_records(num_input_records),
        num_tasks(static_cast<int>(
            std::min<int64_t>(config.EffectiveMapTasks(),
                              std::max<int64_t>(1, num_input_records)))),
        num_partitions(config.EffectiveReduceTasks()),
        chunk((num_input_records + num_tasks - 1) / std::max(num_tasks, 1)) {}

  int64_t num_input_records;
  int num_tasks;
  int num_partitions;
  int64_t chunk;
};

/// MapTaskReport::flags: why a map task failed.
inline constexpr uint32_t kTaskGaveUp = 1u << 0;      ///< exhausted attempts
inline constexpr uint32_t kTaskOverBudget = 1u << 1;  ///< shuffle budget blown

/// One map task's post-mortem, which Engine::Run folds into JobStats.
struct MapTaskReport {
  int64_t task = 0;
  /// Input records handed to the reader: a task killed mid-chunk does not
  /// claim its whole chunk.
  int64_t processed = 0;
  int64_t pre_combine_records = 0;
  int64_t post_combine_records = 0;
  int32_t attempts = 1;
  uint32_t flags = 0;
};

/// Deterministic per-(job, task, attempt) map-task failure decision: a
/// rerun of the same job id replays the same draws, so retry counts are
/// reproducible.
inline bool ShouldFailMapAttempt(const ClusterConfig& config, int64_t job,
                                 size_t task, int attempt) {
  if (config.task_failure_probability <= 0.0) return false;
  uint64_t h = Mix64(config.failure_seed ^
                     Mix64(static_cast<uint64_t>(job) * 1000003ull +
                           static_cast<uint64_t>(task) * 1009ull +
                           static_cast<uint64_t>(attempt)));
  double u = static_cast<double>(h >> 11) *
             (1.0 / 9007199254740992.0);  // 53-bit uniform in [0, 1)
  return u < config.task_failure_probability;
}

/// Runs map task `t` of job `job_id` into `em`. Failure injection first: a
/// crashed attempt loses its would-be output and the task re-runs, like a
/// Hadoop task retry, and a task out of attempts gives up without reading.
/// Otherwise the reader sees the task's input range until it ends or the
/// emitter blows the shuffle budget, and the emitter is flushed.
template <typename K, typename V, typename ReaderFn>
MapTaskReport RunMapTask(const ClusterConfig& config, int64_t job_id, int t,
                         const JobShape& shape, ReaderFn& reader,
                         ShuffleEmitter<K, V>* em) {
  MapTaskReport rep;
  rep.task = t;
  int attempt = 1;
  while (attempt <= config.max_task_attempts &&
         ShouldFailMapAttempt(config, job_id, static_cast<size_t>(t),
                              attempt)) {
    ++attempt;
  }
  rep.attempts = std::min(attempt, config.max_task_attempts);
  if (attempt > config.max_task_attempts) {
    rep.flags = kTaskGaveUp;
    return rep;
  }
  const int64_t begin = static_cast<int64_t>(t) * shape.chunk;
  const int64_t end = std::min(begin + shape.chunk, shape.num_input_records);
  for (int64_t i = begin; i < end && !em->failed(); ++i) {
    reader(i, em);
    ++rep.processed;
  }
  if (!em->Flush()) rep.flags = kTaskOverBudget;
  rep.pre_combine_records = em->TotalRecords();
  rep.post_combine_records = rep.pre_combine_records;
  return rep;
}

/// Runs the combiner over a map task's partition buffers and counts the
/// records the task now shuffles.
template <typename K, typename V>
void CombineMapTask(const std::function<V(const V&, const V&)>& combiner,
                    ShuffleEmitter<K, V>* em, MapTaskReport* rep) {
  for (auto& buf : em->buffers()) CombineShuffleBuffer<K, V>(&buf, combiner);
  rep->post_combine_records = em->TotalRecords();
}

inline uint32_t MapReportFlags(const std::vector<MapTaskReport>& reports) {
  uint32_t flags = 0;
  for (const MapTaskReport& rep : reports) flags |= rep.flags;
  return flags;
}

/// Folds a job's map-task reports, indexed by task, into its map-side
/// counters. Byte counters are record counts times `record_bytes`.
inline void FoldMapReports(const std::vector<MapTaskReport>& reports,
                           uint64_t record_bytes, JobStats* stats) {
  stats->map_task_records.assign(reports.size(), 0);
  stats->map_task_attempts.assign(reports.size(), 1);
  for (size_t t = 0; t < reports.size(); ++t) {
    const MapTaskReport& rep = reports[t];
    stats->map_task_records[t] = rep.processed;
    stats->map_task_attempts[t] = rep.attempts;
    stats->map_task_retries += rep.attempts - 1;
    stats->pre_combine_records += rep.pre_combine_records;
    stats->map_output_records += rep.post_combine_records;
  }
  stats->map_output_bytes =
      static_cast<uint64_t>(stats->map_output_records) * record_bytes;
}

/// Classifies a map phase by its tasks' `flags`: a task out of attempts
/// aborts the job; else a blown shuffle budget is "oom". Sets
/// stats->failure and returns the job's error, or returns OK when no task
/// failed.
inline Status MapPhaseFailure(const std::string& name, uint32_t flags,
                              JobStats* stats) {
  if (flags & kTaskGaveUp) {
    stats->failure = "aborted";
    return Status::Aborted("job '" + name +
                           "': a map task exceeded max_task_attempts");
  }
  if (flags & kTaskOverBudget) {
    stats->failure = "oom";
    return Status::ResourceExhausted(
        "o.o.m.: job '" + name +
        "' exceeded the cluster shuffle-memory budget");
  }
  return Status::OK();
}

}  // namespace haten2

#endif  // HATEN2_MAPREDUCE_SHUFFLE_H_
