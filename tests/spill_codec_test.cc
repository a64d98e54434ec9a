// Tests for the block-compressed spill format: varint primitives, block
// round-trips, corrupted-block rejection (including forged record counts
// and a seeded mutation loop over valid blocks), compression effectiveness
// on clustered keys, and end-to-end bit-identity of decompositions with
// compression on vs off.

#include "mapreduce/spill_codec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/parafac.h"
#include "core/tucker.h"
#include "mapreduce/engine.h"
#include "test_util.h"

namespace haten2 {
namespace {

TEST(SpillCodecVarint, RoundTripsBoundaryValues) {
  const uint64_t cases[] = {0,
                            1,
                            127,
                            128,
                            129,
                            16383,
                            16384,
                            (1ull << 32) - 1,
                            1ull << 32,
                            1ull << 63,
                            std::numeric_limits<uint64_t>::max()};
  for (uint64_t want : cases) {
    std::string buf;
    AppendVarint(want, &buf);
    ASSERT_GE(buf.size(), 1u);
    ASSERT_LE(buf.size(), 10u);
    uint64_t got = 0;
    EXPECT_EQ(DecodeVarint(buf.data(), buf.size(), &got), buf.size())
        << "value " << want;
    EXPECT_EQ(got, want);
  }
}

TEST(SpillCodecVarint, DecodeConsumesOnlyOneVarint) {
  std::string buf;
  AppendVarint(300, &buf);
  size_t first = buf.size();
  AppendVarint(7, &buf);
  uint64_t got = 0;
  EXPECT_EQ(DecodeVarint(buf.data(), buf.size(), &got), first);
  EXPECT_EQ(got, 300u);
}

TEST(SpillCodecVarint, RejectsTruncatedInput) {
  std::string buf;
  AppendVarint(std::numeric_limits<uint64_t>::max(), &buf);
  uint64_t got = 0;
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    EXPECT_EQ(DecodeVarint(buf.data(), cut, &got), 0u) << "cut at " << cut;
  }
  EXPECT_EQ(DecodeVarint(nullptr, 0, &got), 0u);
}

TEST(SpillCodecVarint, RejectsOverlongEncodings) {
  // Ten continuation bytes: an eleventh byte would be needed, which no
  // 64-bit value produces.
  std::string overlong(10, static_cast<char>(0x80));
  uint64_t got = 0;
  EXPECT_EQ(DecodeVarint(overlong.data(), overlong.size(), &got), 0u);
  // A 10th byte with any bit beyond the 64-bit capacity set is invalid.
  std::string toobig(9, static_cast<char>(0x80));
  toobig.push_back(0x02);
  EXPECT_EQ(DecodeVarint(toobig.data(), toobig.size(), &got), 0u);
}

// --- block round-trips -----------------------------------------------------

using Record = std::pair<int64_t, double>;

std::string RecordBytes(const std::vector<Record>& records) {
  std::string raw(records.size() * sizeof(Record), '\0');
  if (!records.empty()) {
    std::memcpy(raw.data(), records.data(), raw.size());
  }
  return raw;
}

/// Encodes `records` as one block, then parses the header and decodes the
/// payload back, returning the reconstructed record structs.
std::vector<Record> RoundTrip(const std::vector<Record>& records) {
  std::string encoded;
  size_t appended = EncodeSpillBlock(RecordBytes(records).data(),
                                     records.size(), sizeof(Record),
                                     sizeof(int64_t), &encoded);
  EXPECT_EQ(appended, encoded.size());
  EXPECT_GE(encoded.size(), kSpillBlockHeaderBytes);

  auto header = ParseSpillBlockHeader(encoded.data(), encoded.size(), "test");
  EXPECT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->record_count, records.size());
  EXPECT_EQ(header->raw_bytes, records.size() * sizeof(Record));
  EXPECT_EQ(header->payload_bytes, encoded.size() - kSpillBlockHeaderBytes);

  std::string decoded;
  Status status = DecodeSpillBlockPayload(
      *header, encoded.data() + kSpillBlockHeaderBytes,
      encoded.size() - kSpillBlockHeaderBytes, sizeof(Record),
      sizeof(int64_t), "test", &decoded);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(decoded.size(), records.size() * sizeof(Record));

  std::vector<Record> out(records.size());
  if (!out.empty()) {
    std::memcpy(static_cast<void*>(out.data()), decoded.data(),
                decoded.size());
  }
  return out;
}

TEST(SpillCodecBlock, RoundTripsEmptyRun) {
  std::vector<Record> records;
  EXPECT_EQ(RoundTrip(records), records);
}

TEST(SpillCodecBlock, RoundTripsSingleRecord) {
  std::vector<Record> records = {{42, 3.25}};
  EXPECT_EQ(RoundTrip(records), records);
}

TEST(SpillCodecBlock, RoundTripsSortedKeys) {
  std::vector<Record> records;
  for (int64_t k = 0; k < 500; ++k) {
    records.push_back({k / 3, static_cast<double>(k) * 0.5});
  }
  EXPECT_EQ(RoundTrip(records), records);
}

TEST(SpillCodecBlock, RoundTripsRandomKeysInEmissionOrder) {
  // Unsorted keys take negative deltas; decode is byte-identical to the
  // input, in the order given, not merely equivalent up to reordering.
  Rng rng(77);
  std::vector<Record> records;
  for (int i = 0; i < 1000; ++i) {
    records.push_back({static_cast<int64_t>(rng.UniformInt(uint64_t{50})),
                       static_cast<double>(i)});
  }
  EXPECT_EQ(RoundTrip(records), records);
}

TEST(SpillCodecBlock, RoundTripsNegativeAndExtremeKeys) {
  // Negative int64 keys have huge unsigned prefixes; deltas still round-trip
  // via unsigned wraparound arithmetic.
  std::vector<Record> records = {{std::numeric_limits<int64_t>::min(), 1.0},
                                 {-1, 2.0},
                                 {0, 3.0},
                                 {std::numeric_limits<int64_t>::max(), 4.0}};
  EXPECT_EQ(RoundTrip(records), records);
}

TEST(SpillCodecBlock, CompressesClusteredKeys) {
  // Keys drawn from a small range: deltas fit in 1-2 varint bytes vs the
  // 8 raw key bytes, so the encoded block is measurably smaller.
  Rng rng(171);
  std::vector<Record> records;
  for (int i = 0; i < 4096; ++i) {
    records.push_back({static_cast<int64_t>(rng.UniformInt(uint64_t{1000})),
                       1.0});
  }
  std::string encoded;
  EncodeSpillBlock(RecordBytes(records).data(), records.size(),
                   sizeof(Record), sizeof(int64_t), &encoded);
  EXPECT_LT(encoded.size(), records.size() * sizeof(Record));
}

// --- corrupted-block rejection ---------------------------------------------

std::string EncodeFixture(std::vector<Record>* records) {
  records->clear();
  for (int64_t k = 0; k < 64; ++k) records->push_back({k, 2.0 * k});
  std::string encoded;
  EncodeSpillBlock(RecordBytes(*records).data(), records->size(),
                   sizeof(Record), sizeof(int64_t), &encoded);
  return encoded;
}

TEST(SpillCodecBlock, RejectsShortHeader) {
  std::vector<Record> records;
  std::string encoded = EncodeFixture(&records);
  auto header = ParseSpillBlockHeader(encoded.data(),
                                      kSpillBlockHeaderBytes - 1, "f @ 0");
  ASSERT_FALSE(header.ok());
  EXPECT_TRUE(header.status().IsIOError());
  EXPECT_NE(header.status().message().find("f @ 0"), std::string::npos);
}

TEST(SpillCodecBlock, RejectsBadMagic) {
  std::vector<Record> records;
  std::string encoded = EncodeFixture(&records);
  encoded[0] ^= 0x5A;
  auto header = ParseSpillBlockHeader(encoded.data(), encoded.size(), "f");
  ASSERT_FALSE(header.ok());
  EXPECT_NE(header.status().message().find("magic"), std::string::npos);
}

TEST(SpillCodecBlock, RejectsUnknownCodecId) {
  std::vector<Record> records;
  std::string encoded = EncodeFixture(&records);
  encoded[4] = 0x7F;  // codec id field
  auto header = ParseSpillBlockHeader(encoded.data(), encoded.size(), "f");
  ASSERT_FALSE(header.ok());
  EXPECT_NE(header.status().message().find("codec"), std::string::npos);
}

TEST(SpillCodecBlock, RejectsRawByteCountMismatch) {
  std::vector<Record> records;
  std::string encoded = EncodeFixture(&records);
  auto header = ParseSpillBlockHeader(encoded.data(), encoded.size(), "f");
  ASSERT_TRUE(header.ok());
  header->raw_bytes += 1;
  std::string decoded;
  Status status = DecodeSpillBlockPayload(
      *header, encoded.data() + kSpillBlockHeaderBytes,
      encoded.size() - kSpillBlockHeaderBytes, sizeof(Record),
      sizeof(int64_t), "f", &decoded);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsIOError());
}

TEST(SpillCodecBlock, RejectsTruncatedPayload) {
  std::vector<Record> records;
  std::string encoded = EncodeFixture(&records);
  auto header = ParseSpillBlockHeader(encoded.data(), encoded.size(), "f");
  ASSERT_TRUE(header.ok());
  std::string decoded;
  Status status = DecodeSpillBlockPayload(
      *header, encoded.data() + kSpillBlockHeaderBytes,
      encoded.size() - kSpillBlockHeaderBytes - 5, sizeof(Record),
      sizeof(int64_t), "f", &decoded);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsIOError());
}

TEST(SpillCodecBlock, RejectsGarbageVarint) {
  std::vector<Record> records;
  std::string encoded = EncodeFixture(&records);
  auto header = ParseSpillBlockHeader(encoded.data(), encoded.size(), "f");
  ASSERT_TRUE(header.ok());
  // Overwrite the whole payload with continuation bytes: the first varint
  // never terminates.
  std::string payload(encoded.size() - kSpillBlockHeaderBytes,
                      static_cast<char>(0x80));
  std::string decoded;
  Status status = DecodeSpillBlockPayload(*header, payload.data(),
                                          payload.size(), sizeof(Record),
                                          sizeof(int64_t), "f", &decoded);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("varint"), std::string::npos);
}

/// Decodes `encoded`'s payload under `header` (which may be forged).
Status DecodeFixture(const SpillBlockHeader& header,
                     const std::string& encoded, std::string* decoded) {
  return DecodeSpillBlockPayload(
      header, encoded.data() + kSpillBlockHeaderBytes,
      encoded.size() - kSpillBlockHeaderBytes, sizeof(Record),
      sizeof(int64_t), "f", decoded);
}

TEST(SpillCodecBlock, RejectsForgedRecordCountBeforeAllocating) {
  // A consistent header claiming 2^40 records: sizing the output from it
  // would ask for 16 TiB. The payload cannot hold that many records (each
  // needs a varint byte plus its 8-byte tail), so decode refuses first.
  std::vector<Record> records;
  std::string encoded = EncodeFixture(&records);
  auto header = ParseSpillBlockHeader(encoded.data(), encoded.size(), "f");
  ASSERT_TRUE(header.ok());
  header->record_count = uint64_t{1} << 40;
  header->raw_bytes = header->record_count * sizeof(Record);
  std::string decoded;
  Status status = DecodeFixture(*header, encoded, &decoded);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsIOError());
  EXPECT_NE(status.message().find("payload can hold"), std::string::npos)
      << status.ToString();
  EXPECT_TRUE(decoded.empty());

  // One record more than the payload holds is refused the same way.
  header->record_count = records.size() + 1;
  header->raw_bytes = header->record_count * sizeof(Record);
  status = DecodeFixture(*header, encoded, &decoded);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsIOError());
}

TEST(SpillCodecBlock, RejectsOverflowingRawWidth) {
  // 2^60 records of 16 bytes wrap the raw width to 0, which a forged
  // raw_bytes of 0 would otherwise match.
  std::vector<Record> records;
  std::string encoded = EncodeFixture(&records);
  auto header = ParseSpillBlockHeader(encoded.data(), encoded.size(), "f");
  ASSERT_TRUE(header.ok());
  header->record_count = uint64_t{1} << 60;
  header->raw_bytes = 0;
  std::string decoded;
  Status status = DecodeFixture(*header, encoded, &decoded);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("overflows"), std::string::npos)
      << status.ToString();
  EXPECT_TRUE(decoded.empty());
}

TEST(SpillCodecFuzz, MutatedBlocksFailCleanlyOrDecodeExactly) {
  // Seeded mutations of valid blocks: bit flips, truncations, and
  // overwritten record-count and length fields. Every case must parse and
  // decode to an IOError, or decode to exactly the header's record count —
  // never crash, throw, or allocate from an unchecked count.
  Rng rng(20261017);
  std::vector<std::string> blocks;
  for (int b = 0; b < 8; ++b) {
    std::vector<Record> records;
    const int n = 1 + static_cast<int>(rng.UniformInt(uint64_t{120}));
    for (int i = 0; i < n; ++i) {
      records.push_back(
          {static_cast<int64_t>(rng.UniformInt(uint64_t{1} << (4 * b))) -
               (b % 2 == 0 ? 0 : 7),
           static_cast<double>(i) * 0.25});
    }
    if (b % 3 != 0) StableSortByKey(&records);
    std::string encoded;
    EncodeSpillBlock(RecordBytes(records).data(), records.size(),
                     sizeof(Record), sizeof(int64_t), &encoded);
    blocks.push_back(std::move(encoded));
  }
  const uint64_t edge_values[] = {0,
                                  1,
                                  2,
                                  uint64_t{1} << 32,
                                  uint64_t{1} << 40,
                                  uint64_t{1} << 63,
                                  std::numeric_limits<uint64_t>::max()};
  constexpr int kCases = 12000;
  int decoded = 0;
  int rejected = 0;
  for (int c = 0; c < kCases; ++c) {
    std::string block = blocks[rng.UniformInt(uint64_t{blocks.size()})];
    switch (c % 4) {
      case 0: {  // bit flips anywhere, header included
        const int flips = 1 + static_cast<int>(rng.UniformInt(uint64_t{3}));
        for (int f = 0; f < flips; ++f) {
          const uint64_t bit = rng.UniformInt(uint64_t{block.size() * 8});
          block[bit / 8] = static_cast<char>(block[bit / 8] ^ (1 << (bit % 8)));
        }
        break;
      }
      case 1:  // truncation
        block.resize(rng.UniformInt(uint64_t{block.size()}));
        break;
      default: {  // overwritten count (8), raw (16) or payload (24) field
        const size_t field = 8 * (1 + rng.UniformInt(uint64_t{3}));
        uint64_t value = rng.UniformInt(uint64_t{2}) == 0
                             ? edge_values[rng.UniformInt(uint64_t{7})]
                             : rng.engine()();
        if (field == 8 && rng.UniformInt(uint64_t{2}) == 0) {
          // Keep raw_bytes consistent so only the payload bound stands.
          value %= uint64_t{1} << 48;
          const uint64_t raw = value * sizeof(Record);
          std::memcpy(block.data() + 16, &raw, sizeof(raw));
        }
        std::memcpy(block.data() + field, &value, sizeof(value));
        break;
      }
    }
    auto header = ParseSpillBlockHeader(block.data(), block.size(), "fuzz");
    if (!header.ok()) {
      ASSERT_TRUE(header.status().IsIOError()) << "case " << c;
      continue;
    }
    // Decode as both readers do: the spill drain takes the header's payload
    // length (refusing one past the bytes it has), a worker takes the
    // frame's.
    const uint64_t available = block.size() - kSpillBlockHeaderBytes;
    for (uint64_t payload_size : {header->payload_bytes, available}) {
      if (payload_size > available) continue;
      std::string out;
      Status status = DecodeSpillBlockPayload(
          *header, block.data() + kSpillBlockHeaderBytes,
          static_cast<size_t>(payload_size), sizeof(Record), sizeof(int64_t),
          "fuzz", &out);
      if (status.ok()) {
        ASSERT_EQ(out.size(), header->record_count * sizeof(Record))
            << "case " << c;
        ++decoded;
      } else {
        ASSERT_TRUE(status.IsIOError()) << "case " << c << ": "
                                        << status.ToString();
        ++rejected;
      }
    }
  }
  // Flips in record tails still decode: the loop exercised both outcomes.
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);
}

TEST(SpillCodecBlock, RejectsTrailingGarbage) {
  std::vector<Record> records;
  std::string encoded = EncodeFixture(&records);
  auto header = ParseSpillBlockHeader(encoded.data(), encoded.size(), "f");
  ASSERT_TRUE(header.ok());
  std::string payload(encoded.begin() + kSpillBlockHeaderBytes,
                      encoded.end());
  payload.push_back('\0');  // extra byte the header doesn't account for
  std::string decoded;
  Status status = DecodeSpillBlockPayload(*header, payload.data(),
                                          payload.size(), sizeof(Record),
                                          sizeof(int64_t), "f", &decoded);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("trailing"), std::string::npos);
}

// --- end-to-end bit-identity -----------------------------------------------

ClusterConfig SpillingConfig(SpillCompression codec) {
  ClusterConfig config = ClusterConfig::ForTesting();
  config.spill_directory = testing::PerTestDir();
  config.spill_threshold_records = 32;
  config.spill_compression = codec;
  return config;
}

TEST(SpillCodec, ParafacBitIdenticalWithCompression) {
  Rng rng(5150);
  SparseTensor x =
      haten2::testing::RandomSparseTensor({15, 12, 10}, 300, &rng);
  Haten2Options options;
  options.max_iterations = 3;
  options.tolerance = 0.0;

  Engine reference(SpillingConfig(SpillCompression::kNone));
  Result<KruskalModel> want = Haten2ParafacAls(&reference, x, 3, options);
  ASSERT_OK(want.status());

  Engine engine(SpillingConfig(SpillCompression::kDeltaVarint));
  Result<KruskalModel> got = Haten2ParafacAls(&engine, x, 3, options);
  ASSERT_OK(got.status());
  EXPECT_DOUBLE_EQ(got->fit, want->fit);
  for (size_t m = 0; m < 3; ++m) {
    EXPECT_DOUBLE_EQ(got->factors[m].MaxAbsDiff(want->factors[m]), 0.0);
  }

  // Compression actually engaged and shrank the spill runs.
  uint64_t raw = engine.pipeline().TotalSpilledRawBytes();
  uint64_t compressed = engine.pipeline().TotalSpilledCompressedBytes();
  EXPECT_GT(raw, 0u);
  EXPECT_LT(compressed, raw);
  // The uncompressed engine reports equal raw and on-disk widths.
  EXPECT_EQ(reference.pipeline().TotalSpilledCompressedBytes(),
            reference.pipeline().TotalSpilledRawBytes());
}

TEST(SpillCodec, TuckerBitIdenticalWithCompression) {
  Rng rng(5151);
  SparseTensor x =
      haten2::testing::RandomSparseTensor({12, 10, 8}, 250, &rng);
  Haten2Options options;
  options.max_iterations = 2;
  options.tolerance = 0.0;

  Engine reference(SpillingConfig(SpillCompression::kNone));
  Result<TuckerModel> want =
      Haten2TuckerAls(&reference, x, {3, 3, 2}, options);
  ASSERT_OK(want.status());

  Engine engine(SpillingConfig(SpillCompression::kDeltaVarint));
  Result<TuckerModel> got = Haten2TuckerAls(&engine, x, {3, 3, 2}, options);
  ASSERT_OK(got.status());
  EXPECT_DOUBLE_EQ(got->fit, want->fit);
  EXPECT_DOUBLE_EQ(got->core.MaxAbsDiff(want->core), 0.0);
  for (size_t m = 0; m < 3; ++m) {
    EXPECT_DOUBLE_EQ(got->factors[m].MaxAbsDiff(want->factors[m]), 0.0);
  }
}

TEST(SpillCodec, ParseSpillCompressionNames) {
  auto none = ParseSpillCompression("none");
  ASSERT_OK(none.status());
  EXPECT_EQ(*none, SpillCompression::kNone);
  auto delta = ParseSpillCompression("delta_varint");
  ASSERT_OK(delta.status());
  EXPECT_EQ(*delta, SpillCompression::kDeltaVarint);
  EXPECT_FALSE(ParseSpillCompression("gzip").ok());
  EXPECT_EQ(SpillCompressionName(SpillCompression::kNone), "none");
  EXPECT_EQ(SpillCompressionName(SpillCompression::kDeltaVarint),
            "delta_varint");
}

}  // namespace
}  // namespace haten2
