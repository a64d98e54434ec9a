#ifndef HATEN2_MAPREDUCE_SHUFFLE_H_
#define HATEN2_MAPREDUCE_SHUFFLE_H_

// The task-level half of a MapReduce job (mapreduce/engine.h runs the
// phases): Engine::RunPartitioned splits a job by its JobShape, runs each
// map task with RunMapTask (attempt draws, emitter, reader loop) and the
// combine fold, reduces each partition with the sort-merge grouping
// (ReducePartition), and folds the tasks' MapTaskReports into JobStats
// with FoldMapReports. As on Hadoop, spilled and combined runs are stably
// sorted by key, and reducers see keys ascending with each key's values in
// (map task, emission) order. That order follows from the data alone, so
// every task count, thread count, spill and compression setting feeds the
// reducers identical inputs.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "mapreduce/cluster.h"
#include "mapreduce/hash.h"
#include "mapreduce/spill_codec.h"
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
template <typename K, typename V>
class ShuffleEmitter {
 public:
  using Record = std::pair<K, V>;
  static constexpr int64_t kChargeChunkRecords = 4096;
  /// Serialized width of one intermediate record. Spill files are written
  /// as raw Record structs, so sizeof(Record) — padding included — is the
  /// width a record actually occupies on disk; the same width is charged
  /// against the shuffle budget and reported in every byte counter, keeping
  /// "bytes" in stats equal to bytes observable outside the process
  /// (docs/INTERNALS.md, Accounting).
  static constexpr uint64_t kRecordBytes = sizeof(Record);

  /// `spill_prefix` empty disables spilling; otherwise a partition's buffer
  /// is stably sorted by key, appended to "<spill_prefix>_p<partition>.spill"
  /// and cleared once it holds `spill_threshold` records (Hadoop's
  /// sort-spill), bounding the task's resident memory. Spilled records
  /// remain charged against the budget: it models the cluster's total
  /// intermediate-data capacity.
  /// `compression` selects the on-disk run encoding (spill_codec.h);
  /// `inject_failure_after_bytes` > 0 tears the spill write that would pass
  /// that cumulative byte count (failure injection, see ClusterConfig).
  ShuffleEmitter(int num_partitions, MemoryTracker* tracker,
                 std::string spill_prefix = "",
                 int64_t spill_threshold = 0,
                 SpillCompression compression = SpillCompression::kNone,
                 int64_t inject_failure_after_bytes = 0)
      : buffers_(static_cast<size_t>(num_partitions)),
        spilled_counts_(static_cast<size_t>(num_partitions), 0),
        spilled_disk_bytes_(static_cast<size_t>(num_partitions), 0),
        tracker_(tracker),
        spill_prefix_(std::move(spill_prefix)),
        spill_threshold_(spill_threshold),
        compression_(compression),
        inject_failure_after_bytes_(inject_failure_after_bytes) {}

  void Emit(const K& key, const V& value) {
    if (failed_) return;
    if (uncharged_records_ == kChargeChunkRecords) {
      if (!ChargePending()) return;
    }
    size_t p = static_cast<size_t>(ShuffleHash<K>()(key) % buffers_.size());
    buffers_[p].emplace_back(key, value);
    ++uncharged_records_;
    if (!spill_prefix_.empty() && spill_threshold_ > 0 &&
        static_cast<int64_t>(buffers_[p].size()) >= spill_threshold_) {
      SpillPartition(p);
    }
  }

  /// Charges any pending records; returns false when the budget is blown.
  bool Flush() { return ChargePending(); }

  bool failed() const { return failed_; }
  const Status& failure_status() const { return failure_status_; }
  uint64_t charged_bytes() const { return charged_bytes_; }

  int64_t TotalRecords() const {
    int64_t n = TotalSpilledRecords();
    for (const auto& b : buffers_) n += static_cast<int64_t>(b.size());
    return n;
  }

  int64_t TotalSpilledRecords() const {
    int64_t n = 0;
    for (int64_t c : spilled_counts_) n += c;
    return n;
  }

  int64_t SpilledRecords(size_t partition) const {
    return spilled_counts_[partition];
  }

  /// Bytes this emitter's spill runs occupy on disk (compressed width;
  /// equals TotalSpilledRecords() * kRecordBytes when compression is none).
  uint64_t TotalSpilledDiskBytes() const {
    uint64_t n = 0;
    for (uint64_t b : spilled_disk_bytes_) n += b;
    return n;
  }

  std::string SpillPath(size_t partition) const {
    return spill_prefix_ + "_p" + std::to_string(partition) + ".spill";
  }

  /// Streams partition `p`'s spilled records (if any) into `consume`, then
  /// removes the spill file. On a read error returns an IOError naming the
  /// spill path and the failing byte offset, and leaves `spilled_counts_`
  /// intact so RemoveSpill / RemoveAllSpills still clean the file up.
  template <typename ConsumeFn>
  Status DrainSpill(size_t p, ConsumeFn&& consume) {
    if (spilled_counts_[p] == 0) return Status::OK();
    const std::string path = SpillPath(p);
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      return Status::IOError("cannot open spill file " + path);
    }
    if (compression_ == SpillCompression::kNone) {
      Record rec;
      for (int64_t i = 0; i < spilled_counts_[p]; ++i) {
        in.read(reinterpret_cast<char*>(&rec), sizeof(Record));
        if (in.gcount() != static_cast<std::streamsize>(sizeof(Record))) {
          return Status::IOError(
              "short read in spill file " + path + " at offset " +
              std::to_string(static_cast<uint64_t>(i) * sizeof(Record)));
        }
        consume(rec);
      }
    } else {
      Status s = DrainCompressedSpill(p, in, path, consume);
      if (!s.ok()) return s;
    }
    in.close();
    RemoveSpill(p);
    return Status::OK();
  }

  /// Drains partition `p`'s spill file back in front of its resident
  /// records, so buffers()[p] holds the task's whole run for `p`, each key's
  /// values in emission order. On error the buffer is left as it was.
  Status ReloadSpill(size_t p) {
    if (spilled_counts_[p] == 0) return Status::OK();
    std::vector<Record> run;
    run.reserve(static_cast<size_t>(spilled_counts_[p]) + buffers_[p].size());
    HATEN2_RETURN_IF_ERROR(
        DrainSpill(p, [&run](const Record& rec) { run.push_back(rec); }));
    run.insert(run.end(), buffers_[p].begin(), buffers_[p].end());
    buffers_[p] = std::move(run);
    return Status::OK();
  }

  void RemoveSpill(size_t p) {
    if (spilled_counts_[p] > 0) {
      std::remove(SpillPath(p).c_str());
      spilled_counts_[p] = 0;
      spilled_disk_bytes_[p] = 0;
    }
  }

  void RemoveAllSpills() {
    for (size_t p = 0; p < spilled_counts_.size(); ++p) RemoveSpill(p);
  }

  std::vector<std::vector<Record>>& buffers() { return buffers_; }

 private:
  void SpillPartition(size_t p) {
    StableSortByKey(&buffers_[p]);
    const char* data = reinterpret_cast<const char*>(buffers_[p].data());
    size_t nbytes = buffers_[p].size() * sizeof(Record);
    std::string encoded;
    if (compression_ == SpillCompression::kDeltaVarint) {
      EncodeSpillBlock(data, buffers_[p].size(), sizeof(Record), sizeof(K),
                       &encoded);
      data = encoded.data();
      nbytes = encoded.size();
    }
    const std::string path = SpillPath(p);
    if (!WriteSpillBytes(path, data, nbytes)) {
      // A partial append leaves a torn file whose tail no reader can parse.
      // Roll the file back to the last committed run boundary — or remove
      // it outright when nothing was committed — *before* failing, so
      // RemoveAllSpills (keyed on spilled_counts_) cannot leak an orphan.
      std::error_code ec;
      if (spilled_disk_bytes_[p] == 0) {
        std::filesystem::remove(path, ec);
      } else {
        std::filesystem::resize_file(path, spilled_disk_bytes_[p], ec);
        if (ec) {
          std::filesystem::remove(path, ec);
          spilled_counts_[p] = 0;
          spilled_disk_bytes_[p] = 0;
        }
      }
      failed_ = true;
      failure_status_ = Status::IOError("spill write failed: " + path);
      return;
    }
    spilled_counts_[p] += static_cast<int64_t>(buffers_[p].size());
    spilled_disk_bytes_[p] += static_cast<uint64_t>(nbytes);
    buffers_[p].clear();
  }

  /// Appends `nbytes` to the spill file; false on failure. The injection
  /// knob tears the write that would pass the configured cumulative byte
  /// count: half the bytes land on disk, as a mid-write disk-full would
  /// leave them.
  bool WriteSpillBytes(const std::string& path, const char* data,
                       size_t nbytes) {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    if (!out) return false;
    if (inject_failure_after_bytes_ > 0 &&
        spill_bytes_written_ + static_cast<int64_t>(nbytes) >
            inject_failure_after_bytes_) {
      out.write(data, static_cast<std::streamsize>(nbytes / 2));
      out.flush();
      return false;
    }
    out.write(data, static_cast<std::streamsize>(nbytes));
    out.flush();
    if (!out) return false;
    spill_bytes_written_ += static_cast<int64_t>(nbytes);
    return true;
  }

  /// Block-decoding drain loop for delta_varint spill files: reads
  /// header + payload per run until every spilled record is consumed,
  /// validating record counts against `spilled_counts_[p]` and payload
  /// lengths against the bytes this emitter committed to the file, so a
  /// corrupt header is an IOError before anything is sized from it.
  template <typename ConsumeFn>
  Status DrainCompressedSpill(size_t p, std::ifstream& in,
                              const std::string& path, ConsumeFn&& consume) {
    int64_t remaining = spilled_counts_[p];
    uint64_t offset = 0;
    char header_buf[kSpillBlockHeaderBytes];
    std::string payload;
    std::string decoded;
    while (remaining > 0) {
      const std::string context =
          path + " at offset " + std::to_string(offset);
      in.read(header_buf, kSpillBlockHeaderBytes);
      if (in.gcount() !=
          static_cast<std::streamsize>(kSpillBlockHeaderBytes)) {
        return Status::IOError("truncated spill block header in " + context);
      }
      Result<SpillBlockHeader> header = ParseSpillBlockHeader(
          header_buf, kSpillBlockHeaderBytes, context);
      if (!header.ok()) return header.status();
      if (static_cast<int64_t>(header->record_count) > remaining) {
        return Status::IOError("spill block overruns the spilled record "
                               "count in " +
                               context);
      }
      const uint64_t committed = spilled_disk_bytes_[p];
      if (offset + kSpillBlockHeaderBytes > committed ||
          header->payload_bytes > committed - offset - kSpillBlockHeaderBytes) {
        return Status::IOError("spill block payload overruns the committed "
                               "spill bytes in " +
                               context);
      }
      payload.resize(header->payload_bytes);
      in.read(payload.data(),
              static_cast<std::streamsize>(header->payload_bytes));
      if (in.gcount() !=
          static_cast<std::streamsize>(header->payload_bytes)) {
        return Status::IOError("truncated spill block payload in " + context);
      }
      decoded.clear();
      HATEN2_RETURN_IF_ERROR(DecodeSpillBlockPayload(
          *header, payload.data(), payload.size(), sizeof(Record), sizeof(K),
          context, &decoded));
      Record rec;
      for (uint64_t i = 0; i < header->record_count; ++i) {
        // void* cast: IsFixedSizeRecord guarantees Record is memcpy-safe
        // even where std::pair is formally non-trivially-copyable.
        std::memcpy(static_cast<void*>(&rec),
                    decoded.data() + i * sizeof(Record), sizeof(Record));
        consume(rec);
      }
      remaining -= static_cast<int64_t>(header->record_count);
      offset += kSpillBlockHeaderBytes + header->payload_bytes;
    }
    return Status::OK();
  }

  bool ChargePending() {
    if (failed_) return false;
    if (uncharged_records_ == 0) return true;
    uint64_t bytes = static_cast<uint64_t>(uncharged_records_) * kRecordBytes;
    if (tracker_ != nullptr) {
      Status s = tracker_->Charge(bytes);
      if (!s.ok()) {
        failed_ = true;
        failure_status_ = Status::ResourceExhausted(s.message());
        return false;
      }
    }
    charged_bytes_ += bytes;
    uncharged_records_ = 0;
    return true;
  }

  std::vector<std::vector<Record>> buffers_;
  std::vector<int64_t> spilled_counts_;
  /// Bytes committed to each partition's spill file (compressed width) —
  /// the truncation point a torn write rolls back to, and the disk traffic
  /// the CostModel charges.
  std::vector<uint64_t> spilled_disk_bytes_;
  MemoryTracker* tracker_;
  std::string spill_prefix_;
  int64_t spill_threshold_ = 0;
  SpillCompression compression_ = SpillCompression::kNone;
  int64_t inject_failure_after_bytes_ = 0;
  int64_t spill_bytes_written_ = 0;
  int64_t uncharged_records_ = 0;
  uint64_t charged_bytes_ = 0;
  bool failed_ = false;
  Status failure_status_;
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

/// Folds duplicate keys of one in-memory partition buffer through the
/// combiner, exactly as a Hadoop combiner runs at the end of a map task:
/// the buffer is stably sorted by key and each run of equal keys folds, in
/// emission order, into one record. It applies to in-memory buffers only
/// (spilled runs are shuffled uncombined).
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
inline constexpr uint32_t kTaskEmitterIO = 1u << 1;   ///< spill write failed
inline constexpr uint32_t kTaskOverBudget = 1u << 2;  ///< shuffle budget blown

/// One map task's post-mortem, which Engine::Run folds into JobStats.
struct MapTaskReport {
  int64_t task = 0;
  /// Input records handed to the reader: a task killed mid-chunk does not
  /// claim its whole chunk.
  int64_t processed = 0;
  int64_t pre_combine_records = 0;
  int64_t post_combine_records = 0;
  int64_t spilled_records = 0;
  uint64_t spilled_disk_bytes = 0;
  int32_t attempts = 1;
  uint32_t flags = 0;
};

/// The emitter of map task `t`: the job's `spill_prefix` ("" disables
/// spilling) gains the task suffix, and `tracker` meters the shuffle budget
/// (nullptr: unmetered).
template <typename K, typename V>
ShuffleEmitter<K, V> MapTaskEmitter(const ClusterConfig& config,
                                    const JobShape& shape,
                                    const std::string& spill_prefix, int t,
                                    MemoryTracker* tracker) {
  return ShuffleEmitter<K, V>(
      shape.num_partitions, tracker,
      spill_prefix.empty() ? std::string()
                           : spill_prefix + "_t" + std::to_string(t),
      config.spill_threshold_records, config.spill_compression,
      config.inject_spill_failure_after_bytes);
}

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
/// emitter fails (budget or spill write), and the emitter is flushed.
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
  em->Flush();
  if (em->failed()) {
    rep.flags = em->failure_status().IsIOError() ? kTaskEmitterIO
                                                 : kTaskOverBudget;
  }
  rep.pre_combine_records = em->TotalRecords();
  rep.post_combine_records = rep.pre_combine_records;
  rep.spilled_records = em->TotalSpilledRecords();
  rep.spilled_disk_bytes = em->TotalSpilledDiskBytes();
  return rep;
}

/// Runs the combiner over a map task's in-memory buffers (spilled runs are
/// shuffled uncombined) and counts the records the task now shuffles.
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
/// counters. Byte counters are record counts times the raw `record_bytes`,
/// except the spill-disk ones, which the emitters measured post-codec.
inline void FoldMapReports(const std::vector<MapTaskReport>& reports,
                           uint64_t record_bytes, JobStats* stats) {
  stats->map_task_records.assign(reports.size(), 0);
  stats->map_task_attempts.assign(reports.size(), 1);
  stats->map_task_spilled_bytes.assign(reports.size(), 0);
  for (size_t t = 0; t < reports.size(); ++t) {
    const MapTaskReport& rep = reports[t];
    stats->map_task_records[t] = rep.processed;
    stats->map_task_attempts[t] = rep.attempts;
    stats->map_task_spilled_bytes[t] = rep.spilled_disk_bytes;
    stats->map_task_retries += rep.attempts - 1;
    stats->spilled_records += rep.spilled_records;
    stats->spilled_compressed_bytes += rep.spilled_disk_bytes;
    stats->pre_combine_records += rep.pre_combine_records;
    stats->map_output_records += rep.post_combine_records;
  }
  stats->map_output_bytes =
      static_cast<uint64_t>(stats->map_output_records) * record_bytes;
  stats->spilled_bytes =
      static_cast<uint64_t>(stats->spilled_records) * record_bytes;
}

/// Classifies a map phase by its tasks' `flags`: a task out of attempts
/// aborts the job; else a spill write failure is an "io_error" with
/// `io_error`, the emitter's account of it; else a blown shuffle budget is
/// "oom". Sets stats->failure and returns the job's error, or returns OK
/// when no task failed.
inline Status MapPhaseFailure(const std::string& name, uint32_t flags,
                              Status io_error, JobStats* stats) {
  if (flags & kTaskGaveUp) {
    stats->failure = "aborted";
    return Status::Aborted("job '" + name +
                           "': a map task exceeded max_task_attempts");
  }
  if (flags & kTaskEmitterIO) {
    stats->failure = "io_error";
    return io_error;
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
