#include "mapreduce/spill_codec.h"

#include <cstring>
#include <limits>

namespace haten2 {

namespace {

/// Little-endian read of the first min(8, key_bytes) bytes of a record's
/// key — the delta-coded prefix. Reading fewer than 8 bytes zero-extends.
/// The prefix is a byte pattern, not an interpretation of the key type:
/// runs sorted by key keep consecutive prefixes close on clustered keys,
/// which is all the codec needs.
uint64_t KeyPrefix(const char* record, size_t key_bytes) {
  uint64_t prefix = 0;
  std::memcpy(&prefix, record, key_bytes < 8 ? key_bytes : 8);
  return prefix;
}

/// Zigzag map of a wrapping 64-bit delta, so small steps in either
/// direction take few varint bytes.
uint64_t ZigZag(uint64_t delta) { return (delta << 1) ^ (0 - (delta >> 63)); }
uint64_t UnZigZag(uint64_t z) { return (z >> 1) ^ (0 - (z & 1)); }

void StoreU32(uint32_t v, char* out) { std::memcpy(out, &v, 4); }
void StoreU64(uint64_t v, char* out) { std::memcpy(out, &v, 8); }
uint32_t LoadU32(const char* in) {
  uint32_t v;
  std::memcpy(&v, in, 4);
  return v;
}
uint64_t LoadU64(const char* in) {
  uint64_t v;
  std::memcpy(&v, in, 8);
  return v;
}

}  // namespace

std::string_view SpillCompressionName(SpillCompression codec) {
  switch (codec) {
    case SpillCompression::kNone:
      return "none";
    case SpillCompression::kDeltaVarint:
      return "delta_varint";
  }
  return "unknown";
}

Result<SpillCompression> ParseSpillCompression(const std::string& name) {
  if (name == "none") return SpillCompression::kNone;
  if (name == "delta_varint") return SpillCompression::kDeltaVarint;
  return Status::InvalidArgument(
      "unknown spill compression '" + name +
      "' (expected 'none' or 'delta_varint')");
}

void AppendVarint(uint64_t value, std::string* out) {
  while (value >= 0x80u) {
    out->push_back(static_cast<char>((value & 0x7Fu) | 0x80u));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

size_t DecodeVarint(const char* data, size_t size, uint64_t* value) {
  uint64_t result = 0;
  size_t i = 0;
  // 10 bytes bound a 64-bit varint; shifts stay < 64 by construction, which
  // keeps the decode clean under UBSan even on hostile input.
  for (; i < size && i < 10; ++i) {
    uint64_t byte = static_cast<uint8_t>(data[i]);
    unsigned shift = static_cast<unsigned>(7 * i);
    if (i == 9) {
      // Only the low bit of the 10th byte fits into a uint64.
      if ((byte & 0x80u) != 0 || byte > 1) return 0;
    }
    result |= (byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0) {
      *value = result;
      return i + 1;
    }
  }
  return 0;  // truncated (ran out of input) or overlong
}

void EncodeSpillBlockHeader(const SpillBlockHeader& header, char* out) {
  StoreU32(header.magic, out);
  StoreU32(header.codec, out + 4);
  StoreU64(header.record_count, out + 8);
  StoreU64(header.raw_bytes, out + 16);
  StoreU64(header.payload_bytes, out + 24);
}

Result<SpillBlockHeader> ParseSpillBlockHeader(const char* data, size_t size,
                                               const std::string& context) {
  if (size < kSpillBlockHeaderBytes) {
    return Status::IOError("truncated spill block header at " + context);
  }
  SpillBlockHeader header;
  header.magic = LoadU32(data);
  header.codec = LoadU32(data + 4);
  header.record_count = LoadU64(data + 8);
  header.raw_bytes = LoadU64(data + 16);
  header.payload_bytes = LoadU64(data + 24);
  if (header.magic != kSpillBlockMagic) {
    return Status::IOError("bad spill block magic at " + context);
  }
  if (header.codec != static_cast<uint32_t>(SpillCompression::kDeltaVarint)) {
    return Status::IOError("unknown spill block codec " +
                           std::to_string(header.codec) + " at " + context);
  }
  return header;
}

size_t EncodeSpillBlock(const char* records, size_t record_count,
                        size_t record_bytes, size_t key_bytes,
                        std::string* out) {
  const size_t prefix_bytes = key_bytes < 8 ? key_bytes : 8;
  const size_t tail_bytes = record_bytes - prefix_bytes;
  const size_t header_at = out->size();
  out->append(kSpillBlockHeaderBytes, '\0');
  uint64_t prev = 0;
  for (size_t i = 0; i < record_count; ++i) {
    const char* rec = records + i * record_bytes;
    const uint64_t prefix = KeyPrefix(rec, key_bytes);
    AppendVarint(ZigZag(prefix - prev), out);
    prev = prefix;
    out->append(rec + prefix_bytes, tail_bytes);
  }

  SpillBlockHeader header;
  header.record_count = record_count;
  header.raw_bytes = static_cast<uint64_t>(record_count) * record_bytes;
  header.payload_bytes =
      out->size() - header_at - kSpillBlockHeaderBytes;
  EncodeSpillBlockHeader(header, out->data() + header_at);
  return out->size() - header_at;
}

Status DecodeSpillBlockPayload(const SpillBlockHeader& header,
                               const char* payload, size_t payload_size,
                               size_t record_bytes, size_t key_bytes,
                               const std::string& context,
                               std::string* records_out) {
  const size_t prefix_bytes = key_bytes < 8 ? key_bytes : 8;
  const size_t tail_bytes = record_bytes - prefix_bytes;
  // Nothing is sized from the header until its record count is known to
  // fit: the raw width must not overflow, and the payload must hold at
  // least one varint byte plus the tail for every record.
  if (header.record_count >
      std::numeric_limits<uint64_t>::max() / record_bytes) {
    return Status::IOError("spill block record count overflows its raw "
                           "width at " +
                           context);
  }
  if (header.raw_bytes != header.record_count * record_bytes) {
    return Status::IOError("spill block raw-byte count disagrees with its "
                           "record count at " +
                           context);
  }
  if (header.record_count > payload_size / (1 + tail_bytes)) {
    return Status::IOError("spill block record count exceeds what its "
                           "payload can hold at " +
                           context);
  }

  const size_t base = records_out->size();
  records_out->resize(base + header.record_count * record_bytes);
  char* dst = records_out->data() + base;
  size_t pos = 0;
  uint64_t prev = 0;
  for (uint64_t i = 0; i < header.record_count; ++i) {
    uint64_t zigzag = 0;
    size_t used = DecodeVarint(payload + pos, payload_size - pos, &zigzag);
    if (used == 0) {
      return Status::IOError("corrupt varint in spill block at " + context);
    }
    pos += used;
    if (payload_size - pos < tail_bytes) {
      return Status::IOError("truncated spill block payload at " + context);
    }
    prev += UnZigZag(zigzag);
    char prefix[8];
    StoreU64(prev, prefix);
    std::memcpy(dst, prefix, prefix_bytes);
    std::memcpy(dst + prefix_bytes, payload + pos, tail_bytes);
    dst += record_bytes;
    pos += tail_bytes;
  }
  if (pos != payload_size) {
    return Status::IOError("trailing garbage in spill block at " + context);
  }
  return Status::OK();
}

}  // namespace haten2
