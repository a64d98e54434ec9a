#ifndef HATEN2_MAPREDUCE_SPILL_CODEC_H_
#define HATEN2_MAPREDUCE_SPILL_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/result.h"

namespace haten2 {

/// \brief On-disk encoding of the engine's sort-spill runs.
///
/// `kNone` writes raw fixed-size records — byte-for-byte the historical
/// format, kept as the deterministic test double. `kDeltaVarint` writes each
/// spill run as one self-describing block: a fixed header carrying the raw
/// and encoded byte counts plus the record count, then the records in the
/// order given, each as its 8-byte key prefix zigzag-delta-encoded against
/// its predecessor's and varint-coded, followed by the rest of the record
/// (key tail, padding, value) stored raw. Spill runs are sorted by key
/// before they are written, so the deltas are small; decoding reproduces
/// the run byte for byte, so the reducer inputs and every decomposition
/// result are bit-identical with compression on or off (docs/INTERNALS.md,
/// Accounting).
enum class SpillCompression : int {
  kNone = 0,
  kDeltaVarint = 1,
};

/// Canonical knob spelling: "none" or "delta_varint".
std::string_view SpillCompressionName(SpillCompression codec);
Result<SpillCompression> ParseSpillCompression(const std::string& name);

// --- varint primitives (exposed for the UBSan-facing codec tests) ---------

/// Appends the LEB128 encoding of `value` (1-10 bytes) to *out.
void AppendVarint(uint64_t value, std::string* out);

/// Decodes one varint from data[0, size); returns the number of bytes
/// consumed, or 0 when the input is truncated or overlong (> 10 bytes).
size_t DecodeVarint(const char* data, size_t size, uint64_t* value);

// --- block format ----------------------------------------------------------

/// First 4 bytes of every delta_varint block ("SPL1" little-endian).
inline constexpr uint32_t kSpillBlockMagic = 0x314C5053u;
/// Serialized header width: magic, codec id, record count, raw bytes,
/// payload bytes.
inline constexpr size_t kSpillBlockHeaderBytes = 32;

struct SpillBlockHeader {
  uint32_t magic = kSpillBlockMagic;
  uint32_t codec = static_cast<uint32_t>(SpillCompression::kDeltaVarint);
  uint64_t record_count = 0;
  /// record_count * record width — what the block decodes back to.
  uint64_t raw_bytes = 0;
  /// Encoded payload size following the header.
  uint64_t payload_bytes = 0;
};

/// Serializes `header` into exactly kSpillBlockHeaderBytes at `out`.
void EncodeSpillBlockHeader(const SpillBlockHeader& header, char* out);

/// Parses a header from data[0, size); rejects short buffers, bad magic,
/// and unknown codec ids. `context` (e.g. "path @ offset N") is woven into
/// the error message.
Result<SpillBlockHeader> ParseSpillBlockHeader(const char* data, size_t size,
                                               const std::string& context);

/// Encodes one spill run of `record_count` fixed-size records
/// (`record_bytes` wide each, key in the first `key_bytes`) as a
/// header + delta/varint payload appended to *out, records in the order
/// given. Returns the number of bytes appended. Decoding restores the
/// records in that order, byte for byte.
size_t EncodeSpillBlock(const char* records, size_t record_count,
                        size_t record_bytes, size_t key_bytes,
                        std::string* out);

/// Decodes a block payload (its header already parsed) back into raw
/// records appended to *records_out, in their encoded order. Before
/// allocating, rejects a record count that overflows the raw width or that
/// the payload cannot hold (each record takes a varint byte plus its tail);
/// then malformed varints and sizes that disagree with the header.
/// `context` names the spill file and block offset for error messages.
Status DecodeSpillBlockPayload(const SpillBlockHeader& header,
                               const char* payload, size_t payload_size,
                               size_t record_bytes, size_t key_bytes,
                               const std::string& context,
                               std::string* records_out);

}  // namespace haten2

#endif  // HATEN2_MAPREDUCE_SPILL_CODEC_H_
