#ifndef HATEN2_TENSOR_BINARY_CODEC_H_
#define HATEN2_TENSOR_BINARY_CODEC_H_

// Byte helpers of the binary tensor format (tensor_binary_io.cc) and the
// delta-log format (delta_log.cc); internal to src/tensor/. Both formats
// open with the same header — an 8-byte magic, a u32 version, an i32 order
// and `order` i64 dims — and close with a Checksum of their body.

#include <cstdint>
#include <cstring>
#include <istream>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/string_util.h"

namespace haten2 {
namespace internal {

/// XOR-fold of a byte range into 8 bytes — cheap corruption detection, not
/// cryptographic.
inline uint64_t Checksum(const char* data, size_t len) {
  uint64_t acc = 0x9e3779b97f4a7c15ULL;
  size_t full = len / 8;
  for (size_t i = 0; i < full; ++i) {
    uint64_t word;
    std::memcpy(&word, data + i * 8, 8);
    acc ^= word + (acc << 7) + (acc >> 3);
  }
  for (size_t i = full * 8; i < len; ++i) {
    acc ^= static_cast<uint64_t>(static_cast<unsigned char>(data[i]))
           << ((i % 8) * 8);
  }
  return acc;
}

template <typename T>
void Put(std::string* out, T value) {
  char buf[sizeof(T)];
  std::memcpy(buf, &value, sizeof(T));
  out->append(buf, sizeof(T));
}

template <typename T>
bool Get(std::istream& in, T* value) {
  char buf[sizeof(T)];
  in.read(buf, sizeof(T));
  if (in.gcount() != static_cast<std::streamsize>(sizeof(T))) return false;
  std::memcpy(value, buf, sizeof(T));
  return true;
}

/// Appends the shared header.
inline void PutHeader(std::string* out, const char (&magic)[8],
                      uint32_t version, const std::vector<int64_t>& dims) {
  out->append(magic, sizeof(magic));
  Put<uint32_t>(out, version);
  Put<int32_t>(out, static_cast<int32_t>(dims.size()));
  for (int64_t d : dims) Put<int64_t>(out, d);
}

/// Reads the shared header and returns its dims. A wrong magic or version,
/// an order outside [1, 64] (hostile headers must not size allocations) or
/// a short read is InvalidArgument naming `path`; the first two also name
/// the format, `noun` (e.g. "binary tensor").
inline Result<std::vector<int64_t>> GetHeader(std::istream& in,
                                              const std::string& path,
                                              const char (&magic)[8],
                                              uint32_t version,
                                              const char* noun) {
  char got[sizeof(magic)];
  in.read(got, sizeof(got));
  if (in.gcount() != sizeof(got) ||
      std::memcmp(got, magic, sizeof(got)) != 0) {
    return Status::InvalidArgument(path + ": not a haten2 " + noun);
  }
  uint32_t got_version = 0;
  int32_t order = 0;
  if (!Get(in, &got_version) || !Get(in, &order)) {
    return Status::InvalidArgument(path + ": truncated header");
  }
  if (got_version != version) {
    return Status::InvalidArgument(StrFormat("%s: unsupported %s version %u",
                                             path.c_str(), noun,
                                             got_version));
  }
  if (order < 1 || order > 64) {
    return Status::InvalidArgument(
        StrFormat("%s: implausible order %d", path.c_str(), order));
  }
  std::vector<int64_t> dims(static_cast<size_t>(order));
  for (int64_t& d : dims) {
    if (!Get(in, &d)) {
      return Status::InvalidArgument(path + ": truncated header");
    }
  }
  return dims;
}

}  // namespace internal
}  // namespace haten2

#endif  // HATEN2_TENSOR_BINARY_CODEC_H_
