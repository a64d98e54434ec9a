#ifndef HATEN2_DISTRIBUTED_WIRE_H_
#define HATEN2_DISTRIBUTED_WIRE_H_

// Length-prefixed wire protocol between the coordinator process and its
// worker processes (Unix-domain socket pairs). Every message is one frame:
//
//   [magic u32 "H2W1"] [version u16] [type u16] [worker i32] [job i64]
//   [a i64] [b i64] [payload_len u32] [payload_crc32 u32]  = 44 bytes,
//   followed by payload_len payload bytes.
//
// `a` and `b` are frame-type-specific scalars (e.g. task and partition ids
// for shuffled-run frames); run payloads are spill-codec blocks
// (mapreduce/spill_codec.h), so the shuffle's wire format is the same
// self-describing format its disk format uses. The CRC covers the payload;
// the fixed header plus the length prefix bounds-checked against
// kMaxWirePayloadBytes gives truncation and corruption detection like the
// checkpoint manifest's. Every decode error names the peer (worker) and the
// cumulative byte offset on that channel, so an incident log pinpoints
// which worker's stream broke and where.

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/result.h"

namespace haten2 {
namespace distributed {

/// First 4 bytes of every frame ("H2W1" little-endian).
inline constexpr uint32_t kWireMagic = 0x31573248u;
inline constexpr uint16_t kWireVersion = 1;
/// Serialized frame-header width.
inline constexpr size_t kWireHeaderBytes = 44;
/// Upper bound on one frame's payload; a length prefix above this is
/// rejected as corruption before any allocation happens.
inline constexpr uint32_t kMaxWirePayloadBytes = 1u << 30;

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `size` bytes.
uint32_t Crc32(const void* data, size_t size);

enum class FrameType : uint16_t {
  /// coordinator -> worker: job parameters (WireAssignment payload).
  kAssignment = 1,
  /// worker -> coordinator: per-map-task reports (MapTaskReport array,
  /// mapreduce/shuffle.h).
  kMapDone = 2,
  /// worker -> coordinator: one shuffled run, a = task, b = partition,
  /// payload = spill-codec block.
  kMapRun = 3,
  /// worker -> coordinator: no more runs follow.
  kRunsDone = 4,
  /// coordinator -> worker: a shuffled run for a partition this worker
  /// owns (same shape as kMapRun).
  kReduceRun = 5,
  /// coordinator -> worker: all runs forwarded; reduce now.
  kStartReduce = 6,
  /// worker -> coordinator: one reduce partition's output records,
  /// a = partition, b = record count.
  kOutputRun = 7,
  /// worker -> coordinator: per-partition reduce reports
  /// (WirePartitionReport array); the worker exits after sending it.
  kWorkerDone = 8,
};

struct WireFrame {
  FrameType type = FrameType::kAssignment;
  int32_t worker = -1;
  int64_t job = -1;
  int64_t a = 0;
  int64_t b = 0;
  std::string payload;
};

/// kAssignment payload. The job's shape (map tasks, reduce partitions) is
/// not sent: a worker reads it from its fork image.
struct WireAssignment {
  int32_t num_workers = 0;
  int32_t reserved = 0;
  /// Failure injection: the worker _exit()s after completing this many map
  /// tasks (0 = disabled). See ClusterConfig::inject_worker_kill_after_tasks.
  int64_t die_after_tasks = 0;
};

/// One owned reduce partition's post-mortem, sent in kWorkerDone.
struct WirePartitionReport {
  int64_t partition = 0;
  int64_t groups = 0;
};

/// Serializes header + payload into `out` (appended), exactly the bytes
/// WriteFrame puts on the socket. Exposed so corruption tests can flip
/// bytes before sending.
void EncodeFrameBytes(const WireFrame& frame, std::string* out);

/// \brief One end of a coordinator<->worker socket, with framing, CRC
/// verification, poll()-based read timeouts, and byte accounting.
///
/// Not thread-safe; each channel is driven by one thread of its process.
class WireChannel {
 public:
  /// Takes ownership of `fd`. `peer` names the other end for error
  /// messages, e.g. "worker 3" on the coordinator side.
  WireChannel(int fd, std::string peer);
  ~WireChannel();

  WireChannel(const WireChannel&) = delete;
  WireChannel& operator=(const WireChannel&) = delete;

  /// Writes one frame. Returns IOError naming the peer and the cumulative
  /// byte offset when the peer is gone (EPIPE/ECONNRESET) or the write
  /// fails. SIGPIPE is suppressed (MSG_NOSIGNAL).
  Status WriteFrame(const WireFrame& frame);

  /// Reads one frame, waiting up to `timeout_seconds` (<= 0 waits forever).
  /// Truncated frames, bad magic, version or type mismatches, oversized
  /// length prefixes, and CRC mismatches all return IOError naming the peer
  /// and byte offset; a timeout does too, instead of hanging.
  Status ReadFrame(double timeout_seconds, WireFrame* out);

  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t bytes_received() const { return bytes_received_; }
  const std::string& peer() const { return peer_; }
  int fd() const { return fd_; }

  void Close();

 private:
  Status ReadExact(char* buf, size_t n, double timeout_seconds,
                   uint64_t frame_offset);
  Status WriteExact(const char* buf, size_t n);

  int fd_;
  std::string peer_;
  uint64_t bytes_sent_ = 0;
  uint64_t bytes_received_ = 0;
};

/// Creates a connected Unix-domain socket pair (SOCK_STREAM).
Status MakeSocketPair(int* first_fd, int* second_fd);

}  // namespace distributed
}  // namespace haten2

#endif  // HATEN2_DISTRIBUTED_WIRE_H_
