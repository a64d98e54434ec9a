#ifndef HATEN2_DISTRIBUTED_SUBPROCESS_JOB_H_
#define HATEN2_DISTRIBUTED_SUBPROCESS_JOB_H_

// Subprocess execution of one MapReduce job: the coordinator (the process
// that called Engine::Run) forks a gang of N workers through a WorkerPool
// and shards the job over them via the wire protocol (distributed/wire.h).
//
// Per-job protocol, in phases:
//
//   coordinator                         worker w (of W)
//   ----------------------------------  --------------------------------
//   kAssignment (W, kill injection) ->
//                                       runs map tasks {t : t % W == w}
//                                       of the job's JobShape (read from
//                                       the fork image) with RunMapTask
//                                       and CombineMapTask, as in-process
//                                    <- kMapDone (MapTaskReports)
//                                    <- kMapRun* (spill-codec blocks)
//                                    <- kRunsDone
//   forwards each run to the owner
//   of its partition (p % W == w),
//   in arrival order
//   kReduceRun* -> ... kStartReduce ->
//                                       places runs by task id, then
//                                       groups + reduces owned
//                                       partitions ascending
//                                    <- kOutputRun* (per partition)
//                                    <- kWorkerDone
//   concatenates outputs partition-
//   ascending; reaps the gang
//
// Bit-identity with the in-process engine: a worker shuffles with the same
// ShuffleEmitter, combines with the same fold, and reduces each owned
// partition with the same sort-merge grouping (ReducePartition) over the
// same runs — one per map task, its spilled records reloaded in front of
// its resident ones, placed by task id — so reducer inputs, reducer call
// order, and the partition-ascending output concatenation all match byte
// for byte whatever order the runs arrive in. Oversized partitions spill
// through the existing codec in the worker, and each shuffled run crosses
// the wire as a spill-codec block.
//
// Worker death (crash, kill injection, lost/corrupt/timed-out socket) fails
// the job with failure kind "worker_lost" and kAborted — the transient
// status the PlanScheduler's node retry re-runs with a fresh job id.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "distributed/wire.h"
#include "distributed/worker_pool.h"
#include "mapreduce/cluster.h"
#include "mapreduce/shuffle.h"
#include "mapreduce/spill_codec.h"
#include "mapreduce/stats.h"
#include "util/memory_tracker.h"
#include "util/result.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace haten2 {
namespace distributed {

/// Worker exit codes (beyond the child_main contract's 0 = clean).
inline constexpr int kWorkerExitInjectedKill = 17;
inline constexpr int kWorkerExitProtocolError = 3;

/// Everything a subprocess job needs besides the closures. Pointer members
/// are not owned.
struct SubprocessJobEnv {
  const ClusterConfig* config = nullptr;
  WorkerPool* pool = nullptr;
  /// Coordinator-side shuffle budget (nullptr = unlimited); workers run
  /// unmetered and the coordinator charges the job's raw shuffle width.
  MemoryTracker* tracker = nullptr;
  const JobShape* shape = nullptr;
  /// The job's spill-file prefix ("" disables spilling).
  std::string spill_prefix;
  std::string name;
  int64_t job_id = -1;
};

/// Output-record wire support: keys must be fixed-size; values fixed-size
/// or std::vector of fixed-size elements (the merge jobs' row vectors).
/// Other output types run on the in-process backend only.
template <typename T>
struct IsWireVectorValue : std::false_type {};
template <typename U>
struct IsWireVectorValue<std::vector<U>> : IsFixedSizeRecord<U> {};

template <typename K, typename V>
inline constexpr bool kWireSerializableOutput =
    IsFixedSizeRecord<K>::value &&
    (IsFixedSizeRecord<V>::value || IsWireVectorValue<V>::value);

template <typename K, typename V>
void SerializeOutputRecords(const std::vector<std::pair<K, V>>& records,
                            std::string* out) {
  if constexpr (IsFixedSizeRecord<V>::value) {
    for (const auto& rec : records) {
      out->append(reinterpret_cast<const char*>(&rec), sizeof(rec));
    }
  } else {
    using U = typename V::value_type;
    for (const auto& rec : records) {
      out->append(reinterpret_cast<const char*>(&rec.first), sizeof(K));
      uint64_t n = static_cast<uint64_t>(rec.second.size());
      out->append(reinterpret_cast<const char*>(&n), sizeof(n));
      out->append(reinterpret_cast<const char*>(rec.second.data()),
                  n * sizeof(U));
    }
  }
}

/// Appends `expected_records` decoded records to *out; IOError (naming
/// `context`) on any size mismatch.
template <typename K, typename V>
Status DeserializeOutputRecords(const std::string& payload,
                                int64_t expected_records,
                                const std::string& context,
                                std::vector<std::pair<K, V>>* out) {
  if constexpr (IsFixedSizeRecord<V>::value) {
    using Record = std::pair<K, V>;
    if (payload.size() !=
        static_cast<uint64_t>(expected_records) * sizeof(Record)) {
      return Status::IOError("output record payload size mismatch in " +
                             context);
    }
    Record rec;
    for (int64_t i = 0; i < expected_records; ++i) {
      std::memcpy(static_cast<void*>(&rec),
                  payload.data() + static_cast<size_t>(i) * sizeof(Record),
                  sizeof(Record));
      out->push_back(rec);
    }
  } else {
    using U = typename V::value_type;
    size_t pos = 0;
    for (int64_t i = 0; i < expected_records; ++i) {
      if (payload.size() - pos < sizeof(K) + sizeof(uint64_t)) {
        return Status::IOError("truncated output record in " + context);
      }
      K key;
      std::memcpy(static_cast<void*>(&key), payload.data() + pos, sizeof(K));
      pos += sizeof(K);
      uint64_t n = 0;
      std::memcpy(&n, payload.data() + pos, sizeof(n));
      pos += sizeof(n);
      if (n > (payload.size() - pos) / sizeof(U)) {
        return Status::IOError("truncated output vector in " + context);
      }
      V values(static_cast<size_t>(n));
      if (n > 0) {
        std::memcpy(values.data(), payload.data() + pos,
                    static_cast<size_t>(n) * sizeof(U));
      }
      pos += static_cast<size_t>(n) * sizeof(U);
      out->emplace_back(key, std::move(values));
    }
    if (pos != payload.size()) {
      return Status::IOError("trailing bytes after output records in " +
                             context);
    }
  }
  return Status::OK();
}

/// \brief Worker-side job execution; runs inside the fork child.
///
/// Returns the child exit code (0 = clean, including jobs the worker knows
/// will fail — the coordinator reads the failure from the task reports).
template <typename KMid, typename VMid, typename KOut, typename VOut,
          typename ReaderFn, typename ReduceFn>
int SubprocessWorkerMain(
    int fd, int worker, const SubprocessJobEnv& env, ReaderFn& reader,
    ReduceFn& reducer,
    const std::function<VMid(const VMid&, const VMid&)>& combiner) {
  using Record = std::pair<KMid, VMid>;
  const ClusterConfig& config = *env.config;
  const double timeout = config.worker_io_timeout_seconds;
  WireChannel ch(fd, "coordinator");

  WireFrame frame;
  if (!ch.ReadFrame(timeout, &frame).ok() ||
      frame.type != FrameType::kAssignment ||
      frame.payload.size() != sizeof(WireAssignment)) {
    return kWorkerExitProtocolError;
  }
  WireAssignment asn;
  std::memcpy(&asn, frame.payload.data(), sizeof(asn));
  const int W = asn.num_workers;
  if (W <= 0 || worker >= W) return kWorkerExitProtocolError;
  const JobShape& shape = *env.shape;
  const int num_tasks = shape.num_tasks;
  const int num_partitions = shape.num_partitions;

  // ---- Map and combine: the in-process runner, unmetered (the coordinator
  // owns the shuffle budget). ----
  std::vector<ShuffleEmitter<KMid, VMid>> emitters;
  std::vector<MapTaskReport> reports;
  bool job_fatal = false;
  int64_t completed_tasks = 0;
  for (int t = worker; t < num_tasks; t += W) {
    emitters.push_back(MapTaskEmitter<KMid, VMid>(config, shape,
                                                  env.spill_prefix, t,
                                                  nullptr));
    reports.push_back(
        RunMapTask(config, env.job_id, t, shape, reader, &emitters.back()));
    if (reports.back().flags != 0) job_fatal = true;
    if (!(reports.back().flags & kTaskGaveUp)) ++completed_tasks;
    if (asn.die_after_tasks > 0 && completed_tasks >= asn.die_after_tasks) {
      // Injected worker death: vanish without a word, spill files and all,
      // exactly as a machine loss would.
      ::_exit(kWorkerExitInjectedKill);
    }
  }
  if (combiner && !job_fatal) {
    for (size_t i = 0; i < emitters.size(); ++i) {
      CombineMapTask(combiner, &emitters[i], &reports[i]);
    }
  }

  // ---- Serialize runs before kMapDone so drain failures are reported in
  // the task flags. A run is one (task, partition)'s records, its spilled
  // records reloaded in front of the buffer — the in-process run. ----
  std::vector<WireFrame> runs;
  for (size_t i = 0; i < emitters.size() && !job_fatal; ++i) {
    ShuffleEmitter<KMid, VMid>& em = emitters[i];
    for (size_t p = 0; p < static_cast<size_t>(num_partitions); ++p) {
      if (!em.ReloadSpill(p).ok()) {
        reports[i].flags |= kTaskDrainIO;
        job_fatal = true;
        break;
      }
      std::vector<Record>& run = em.buffers()[p];
      if (run.empty()) continue;
      WireFrame f;
      f.type = FrameType::kMapRun;
      f.worker = worker;
      f.job = env.job_id;
      f.a = reports[i].task;
      f.b = static_cast<int64_t>(p);
      EncodeSpillBlock(reinterpret_cast<const char*>(run.data()), run.size(),
                       sizeof(Record), sizeof(KMid), &f.payload);
      runs.push_back(std::move(f));
      run.clear();
      run.shrink_to_fit();
    }
  }
  if (job_fatal) {
    for (auto& em : emitters) em.RemoveAllSpills();
    runs.clear();
  }

  WireFrame done;
  done.type = FrameType::kMapDone;
  done.worker = worker;
  done.job = env.job_id;
  done.a = static_cast<int64_t>(reports.size());
  if (!reports.empty()) {
    done.payload.assign(reinterpret_cast<const char*>(reports.data()),
                        reports.size() * sizeof(MapTaskReport));
  }
  if (!ch.WriteFrame(done).ok()) return kWorkerExitProtocolError;
  for (const WireFrame& f : runs) {
    if (!ch.WriteFrame(f).ok()) return kWorkerExitProtocolError;
  }
  WireFrame runs_done;
  runs_done.type = FrameType::kRunsDone;
  runs_done.worker = worker;
  runs_done.job = env.job_id;
  if (!ch.WriteFrame(runs_done).ok()) return kWorkerExitProtocolError;
  // The coordinator fails the job from the reports; nothing left to do.
  if (job_fatal) return 0;

  // ---- Group: partition_runs[p / W][t] holds task t's run for owned
  // partition p, so runs are in task order whatever order they arrive in.
  std::vector<std::vector<std::vector<Record>>> partition_runs(
      static_cast<size_t>((num_partitions - worker + W - 1) / W),
      std::vector<std::vector<Record>>(static_cast<size_t>(num_tasks)));
  std::string decoded;
  while (true) {
    if (!ch.ReadFrame(timeout, &frame).ok()) return kWorkerExitProtocolError;
    if (frame.type == FrameType::kStartReduce) break;
    if (frame.type != FrameType::kReduceRun) return kWorkerExitProtocolError;
    if (frame.a < 0 || frame.a >= num_tasks || frame.b < 0 ||
        frame.b >= num_partitions || frame.b % W != worker ||
        frame.payload.size() < kSpillBlockHeaderBytes) {
      return kWorkerExitProtocolError;
    }
    std::vector<Record>& run =
        partition_runs[static_cast<size_t>(frame.b / W)]
                      [static_cast<size_t>(frame.a)];
    if (!run.empty()) return kWorkerExitProtocolError;  // duplicate run
    // A worker reports a bad run only by its exit code, so the decode
    // errors need no context.
    Result<SpillBlockHeader> header = ParseSpillBlockHeader(
        frame.payload.data(), kSpillBlockHeaderBytes, "forwarded run");
    if (!header.ok()) return kWorkerExitProtocolError;
    decoded.clear();
    if (!DecodeSpillBlockPayload(
             *header, frame.payload.data() + kSpillBlockHeaderBytes,
             frame.payload.size() - kSpillBlockHeaderBytes, sizeof(Record),
             sizeof(KMid), "forwarded run", &decoded)
             .ok()) {
      return kWorkerExitProtocolError;
    }
    run.resize(static_cast<size_t>(header->record_count));
    if (!run.empty()) {
      std::memcpy(static_cast<void*>(run.data()), decoded.data(),
                  decoded.size());
    }
  }

  // ---- Reduce owned partitions ascending; stream outputs back. ----
  std::vector<WirePartitionReport> partition_reports;
  for (int p = worker; p < num_partitions; p += W) {
    std::vector<std::vector<Record>>& task_runs =
        partition_runs[static_cast<size_t>(p / W)];
    std::vector<std::span<const Record>> spans(task_runs.begin(),
                                               task_runs.end());
    OutputEmitter<KOut, VOut> out;
    WirePartitionReport pr;
    pr.partition = p;
    pr.groups = ReducePartition(spans, reducer, &out);
    partition_reports.push_back(pr);
    task_runs = {};
    WireFrame f;
    f.type = FrameType::kOutputRun;
    f.worker = worker;
    f.job = env.job_id;
    f.a = p;
    f.b = static_cast<int64_t>(out.records().size());
    SerializeOutputRecords<KOut, VOut>(out.records(), &f.payload);
    if (!ch.WriteFrame(f).ok()) return kWorkerExitProtocolError;
  }
  WireFrame worker_done;
  worker_done.type = FrameType::kWorkerDone;
  worker_done.worker = worker;
  worker_done.job = env.job_id;
  if (!partition_reports.empty()) {
    worker_done.payload.assign(
        reinterpret_cast<const char*>(partition_reports.data()),
        partition_reports.size() * sizeof(WirePartitionReport));
  }
  if (!ch.WriteFrame(worker_done).ok()) return kWorkerExitProtocolError;
  return 0;
}

/// \brief Coordinator-side job execution (called by Engine::Run when
/// ClusterConfig::backend == "subprocess").
///
/// Fills `reports` (indexed by task) and the shuffle and reduce counters of
/// `stats` as the in-process engine would, except on two kinds of failed
/// job. On an o.o.m. job the workers run unmetered and the coordinator
/// charges the job's whole pre-combine width once, after the map phase, so
/// every task maps its whole chunk. When only some workers' tasks fail, the
/// other workers have already combined their tasks' records (the in-process
/// engine combines nothing once a task fails). Failure kinds are
/// MapPhaseFailure's plus "worker_lost" (kAborted) when a worker process
/// dies or its channel breaks, which the PlanScheduler treats as transient
/// and retries with a fresh job id.
template <typename KMid, typename VMid, typename KOut, typename VOut,
          typename ReaderFn, typename ReduceFn>
Result<std::vector<std::pair<KOut, VOut>>> RunSubprocessJob(
    const SubprocessJobEnv& env, ReaderFn& reader, ReduceFn& reducer,
    const std::function<VMid(const VMid&, const VMid&)>& combiner,
    std::vector<MapTaskReport>* reports, JobStats* stats) {
  using Record = std::pair<KMid, VMid>;
  using Output = std::vector<std::pair<KOut, VOut>>;
  constexpr uint64_t kRecordBytes = sizeof(Record);
  const ClusterConfig& config = *env.config;
  WorkerPool* pool = env.pool;
  const double timeout = config.worker_io_timeout_seconds;

  WallTimer phase_timer;
  const int num_tasks = env.shape->num_tasks;
  const int num_partitions = env.shape->num_partitions;
  const int W = pool->num_workers();

  uint64_t charged_bytes = 0;
  auto release_all = [&] {
    if (env.tracker != nullptr && charged_bytes > 0) {
      env.tracker->Release(charged_bytes);
    }
    charged_bytes = 0;
  };
  auto worker_lost = [&](int w, const Status& cause) -> Status {
    // The loss counts as a restart whether or not the worker is still
    // exiting when the gang is reaped.
    pool->MarkLost(w);
    pool->FinishGang(/*kill=*/true);
    release_all();
    stats->failure = "worker_lost";
    return Status::Aborted(StrFormat("job '%s': worker %d lost: %s",
                                     env.name.c_str(), w,
                                     cause.ToString().c_str()));
  };
  auto fail_job = [&](Status status) -> Status {
    pool->FinishGang(/*kill=*/true);
    release_all();
    return status;
  };

  // The gang is forked per job: the children inherit this job's closures
  // (and the input they capture) through the fork image.
  Status spawned = pool->SpawnGang([&](int fd, int worker) {
    return SubprocessWorkerMain<KMid, VMid, KOut, VOut>(
        fd, worker, env, reader, reducer, combiner);
  });
  if (!spawned.ok()) {
    stats->failure = "worker_lost";
    return Status::Aborted("job '" + env.name +
                           "': " + std::string(spawned.message()));
  }

  // ---- Map phase: assign, then collect reports and shuffled runs. ----
  for (int w = 0; w < W; ++w) {
    int64_t assigned = 0;
    for (int t = w; t < num_tasks; t += W) ++assigned;
    WireAssignment asn;
    asn.num_workers = W;
    asn.die_after_tasks = pool->PlanKillInjection(
        config.inject_worker_kill_after_tasks, assigned);
    WireFrame f;
    f.type = FrameType::kAssignment;
    f.worker = w;
    f.job = env.job_id;
    f.payload.assign(reinterpret_cast<const char*>(&asn), sizeof(asn));
    Status s = pool->channel(w)->WriteFrame(f);
    if (!s.ok()) return worker_lost(w, s);
  }

  int64_t pre_combine_total = 0;
  // Shuffled runs in arrival order: raw spill-codec blocks forwarded to
  // reduce owners without decoding, with their record counts from the block
  // headers. Owners place each run by its task id, so arrival order does
  // not reach the reducers.
  std::vector<WireFrame> runs;
  std::vector<int64_t> run_records;
  for (int w = 0; w < W; ++w) {
    WireChannel* ch = pool->channel(w);
    WireFrame f;
    Status s = ch->ReadFrame(timeout, &f);
    if (!s.ok()) return worker_lost(w, s);
    if (f.type != FrameType::kMapDone) {
      return worker_lost(
          w, Status::IOError("protocol error: expected kMapDone"));
    }
    const size_t count = f.payload.size() / sizeof(MapTaskReport);
    if (f.payload.size() != count * sizeof(MapTaskReport) ||
        static_cast<int64_t>(count) != f.a) {
      return worker_lost(w, Status::IOError("malformed kMapDone payload"));
    }
    int64_t worker_tasks = 0;
    for (size_t i = 0; i < count; ++i) {
      MapTaskReport rep;
      std::memcpy(&rep, f.payload.data() + i * sizeof(rep), sizeof(rep));
      if (rep.task < 0 || rep.task >= num_tasks) {
        return worker_lost(w,
                           Status::IOError("task id out of range in report"));
      }
      (*reports)[static_cast<size_t>(rep.task)] = rep;
      pre_combine_total += rep.pre_combine_records;
      if (!(rep.flags & kTaskGaveUp)) ++worker_tasks;
    }
    pool->NoteTasksCompleted(w, worker_tasks);
    while (true) {
      Status rs = ch->ReadFrame(timeout, &f);
      if (!rs.ok()) return worker_lost(w, rs);
      if (f.type == FrameType::kRunsDone) break;
      if (f.type != FrameType::kMapRun) {
        return worker_lost(
            w, Status::IOError("protocol error: expected kMapRun"));
      }
      if (f.a < 0 || f.a >= num_tasks || f.b < 0 || f.b >= num_partitions) {
        return worker_lost(w, Status::IOError("run ids out of range"));
      }
      if (f.payload.size() < kSpillBlockHeaderBytes) {
        return worker_lost(w, Status::IOError("short shuffled-run block"));
      }
      Result<SpillBlockHeader> header = ParseSpillBlockHeader(
          f.payload.data(), kSpillBlockHeaderBytes,
          StrFormat("run t%lld p%lld from worker %d",
                    static_cast<long long>(f.a),
                    static_cast<long long>(f.b), w));
      if (!header.ok()) return worker_lost(w, header.status());
      run_records.push_back(static_cast<int64_t>(header->record_count));
      runs.push_back(std::move(f));
    }
  }
  // Combine time is folded into map_seconds: it runs inside the workers'
  // map phase.
  stats->phases.map_seconds = phase_timer.Lap();

  uint32_t flags = MapReportFlags(*reports);
  // Shuffle budget: charge the same raw pre-combine width the in-process
  // emitters charge, in one step once the workers report their counts.
  if (flags == 0 && env.tracker != nullptr) {
    const uint64_t bytes =
        static_cast<uint64_t>(pre_combine_total) * kRecordBytes;
    if (env.tracker->Charge(bytes).ok()) {
      charged_bytes = bytes;
    } else {
      flags = kTaskOverBudget;
    }
  }
  Status map_failure = MapPhaseFailure(
      env.name, flags,
      Status::IOError("job '" + env.name + "': a worker spill " +
                      ((flags & kTaskEmitterIO) ? "write" : "read") +
                      " failed"),
      stats);
  if (!map_failure.ok()) return fail_job(map_failure);

  // ---- Shuffle phase: forward each run to its partition's owner. ----
  for (size_t i = 0; i < runs.size(); ++i) {
    WireFrame& f = runs[i];
    const int owner = static_cast<int>(f.b % W);
    f.type = FrameType::kReduceRun;
    f.worker = owner;
    f.job = env.job_id;
    Status s = pool->channel(owner)->WriteFrame(f);
    if (!s.ok()) return worker_lost(owner, s);
    const size_t p = static_cast<size_t>(f.b);
    stats->reduce_partition_records[p] += run_records[i];
    stats->reduce_partition_bytes[p] +=
        static_cast<uint64_t>(run_records[i]) * kRecordBytes;
  }
  runs.clear();
  for (int w = 0; w < W; ++w) {
    WireFrame f;
    f.type = FrameType::kStartReduce;
    f.worker = w;
    f.job = env.job_id;
    Status s = pool->channel(w)->WriteFrame(f);
    if (!s.ok()) return worker_lost(w, s);
  }
  stats->phases.shuffle_seconds = phase_timer.Lap();

  // ---- Reduce phase: collect per-partition outputs. ----
  std::vector<std::string> partition_payloads(
      static_cast<size_t>(num_partitions));
  std::vector<int64_t> partition_counts(static_cast<size_t>(num_partitions),
                                        0);
  for (int w = 0; w < W; ++w) {
    WireChannel* ch = pool->channel(w);
    while (true) {
      WireFrame f;
      Status s = ch->ReadFrame(timeout, &f);
      if (!s.ok()) return worker_lost(w, s);
      if (f.type == FrameType::kWorkerDone) {
        const size_t count = f.payload.size() / sizeof(WirePartitionReport);
        if (f.payload.size() != count * sizeof(WirePartitionReport)) {
          return worker_lost(
              w, Status::IOError("malformed kWorkerDone payload"));
        }
        for (size_t i = 0; i < count; ++i) {
          WirePartitionReport pr;
          std::memcpy(&pr, f.payload.data() + i * sizeof(pr), sizeof(pr));
          stats->reduce_input_groups += pr.groups;
        }
        break;
      }
      if (f.type != FrameType::kOutputRun) {
        return worker_lost(
            w, Status::IOError("protocol error: expected kOutputRun"));
      }
      if (f.a < 0 || f.a >= num_partitions ||
          static_cast<int>(f.a % W) != w) {
        return worker_lost(
            w, Status::IOError("output partition out of range"));
      }
      partition_counts[static_cast<size_t>(f.a)] = f.b;
      partition_payloads[static_cast<size_t>(f.a)] = std::move(f.payload);
    }
  }
  pool->FinishGang(/*kill=*/false);

  Output output;
  for (int p = 0; p < num_partitions; ++p) {
    if (partition_counts[static_cast<size_t>(p)] == 0 &&
        partition_payloads[static_cast<size_t>(p)].empty()) {
      continue;
    }
    Status s = DeserializeOutputRecords<KOut, VOut>(
        partition_payloads[static_cast<size_t>(p)],
        partition_counts[static_cast<size_t>(p)],
        StrFormat("output partition %d", p), &output);
    if (!s.ok()) {
      release_all();
      stats->failure = "io_error";
      return Status::IOError("job '" + env.name +
                             "': " + std::string(s.message()));
    }
  }
  stats->reduce_output_records = static_cast<int64_t>(output.size());
  stats->phases.reduce_seconds = phase_timer.Lap();
  release_all();
  return output;
}

}  // namespace distributed
}  // namespace haten2

#endif  // HATEN2_DISTRIBUTED_SUBPROCESS_JOB_H_
