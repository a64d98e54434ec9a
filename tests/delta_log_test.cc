// DeltaLog: append/seal semantics, merged views, the binary round-trip,
// and corruption detection (including a seeded mutation fuzz of whole
// files) — the ingest side of the refit loop.

#include "tensor/delta_log.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "mutation_fuzz.h"
#include "tensor/sparse_tensor.h"
#include "test_util.h"
#include "util/random.h"

namespace haten2 {
namespace {

using testing::RandomSparseTensor;

std::string TempPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  std::string base = (dir != nullptr && dir[0] != '\0') ? dir : "/tmp";
  return base + "/haten2_delta_log_test_" + name;
}

TEST(DeltaLog, AppendSealAndMergeSumsDuplicates) {
  Result<DeltaLog> log = DeltaLog::Create({4, 4, 4});
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  ASSERT_OK(log->Append({1, 2, 3}, 1.0));
  ASSERT_OK(log->Append({1, 2, 3}, 2.0));  // duplicate sums at seal
  ASSERT_OK(log->Append({0, 0, 0}, 5.0));
  EXPECT_EQ(log->open_appends(), 3);
  Result<int64_t> epoch = log->SealEpoch();
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(*epoch, 0);
  EXPECT_EQ(log->num_epochs(), 1);
  EXPECT_EQ(log->open_appends(), 0);
  const SparseTensor& delta = log->epoch(0);
  EXPECT_EQ(delta.nnz(), 2);
  EXPECT_DOUBLE_EQ(delta.Get({1, 2, 3}), 3.0);

  Result<SparseTensor> base = SparseTensor::Create({4, 4, 4});
  ASSERT_TRUE(base.ok());
  ASSERT_OK(base->Append({1, 2, 3}, 10.0));
  base->Canonicalize();
  Result<SparseTensor> merged = log->MergedView(*base);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_DOUBLE_EQ(merged->Get({1, 2, 3}), 13.0);
  EXPECT_DOUBLE_EQ(merged->Get({0, 0, 0}), 5.0);
}

TEST(DeltaLog, DeletionByCancellationDropsTheEntry) {
  Result<DeltaLog> log = DeltaLog::Create({3, 3});
  ASSERT_TRUE(log.ok());
  ASSERT_OK(log->Append({2, 2}, 4.0));
  ASSERT_OK(log->Append({2, 2}, -4.0));
  ASSERT_OK(log->SealEpoch().status());
  // All entries cancelled: the sealed epoch is empty but still an epoch.
  EXPECT_EQ(log->num_epochs(), 1);
  EXPECT_EQ(log->epoch(0).nnz(), 0);
}

TEST(DeltaLog, SealingAnEmptyBufferIsRefused) {
  Result<DeltaLog> log = DeltaLog::Create({2, 2});
  ASSERT_TRUE(log.ok());
  Result<int64_t> sealed = log->SealEpoch();
  EXPECT_FALSE(sealed.ok());
  EXPECT_TRUE(sealed.status().IsFailedPrecondition())
      << sealed.status().ToString();
}

TEST(DeltaLog, AppendsAreBoundsChecked) {
  Result<DeltaLog> log = DeltaLog::Create({2, 2});
  ASSERT_TRUE(log.ok());
  EXPECT_FALSE(log->Append({2, 0}, 1.0).ok());  // coordinate == dim
  EXPECT_FALSE(log->Append({0, -1}, 1.0).ok());
  EXPECT_EQ(log->open_appends(), 0);
}

TEST(DeltaLog, MergeDeltaRequiresMatchingDims) {
  Result<SparseTensor> base = SparseTensor::Create({3, 3});
  Result<SparseTensor> delta = SparseTensor::Create({3, 4});
  ASSERT_TRUE(base.ok() && delta.ok());
  Status merged = MergeDelta(&*base, *delta);
  EXPECT_FALSE(merged.ok());
}

TEST(DeltaLog, FromTensorChopsIntoEpochsInStorageOrder) {
  Rng rng(7);
  SparseTensor triples = RandomSparseTensor({6, 6, 6}, 50, &rng);
  const int64_t nnz = triples.nnz();
  Result<DeltaLog> log = DeltaLogFromTensor(triples, {8, 8, 8}, 16);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ(log->num_epochs(), (nnz + 15) / 16);
  EXPECT_EQ(log->sealed_nnz(), nnz);  // canonical input: nothing merges

  // Merging every epoch into an empty base reproduces the source tensor
  // (modulo the wider declared dims).
  Result<SparseTensor> empty = SparseTensor::Create({8, 8, 8});
  ASSERT_TRUE(empty.ok());
  Result<SparseTensor> merged = log->MergedView(*empty);
  ASSERT_TRUE(merged.ok());
  ASSERT_EQ(merged->nnz(), nnz);
  for (int64_t e = 0; e < nnz; ++e) {
    EXPECT_EQ(merged->index(e, 0), triples.index(e, 0));
    EXPECT_EQ(merged->index(e, 1), triples.index(e, 1));
    EXPECT_EQ(merged->index(e, 2), triples.index(e, 2));
    EXPECT_DOUBLE_EQ(merged->value(e), triples.value(e));
  }

  // epoch_nnz <= 0: everything in one epoch.
  Result<DeltaLog> one = DeltaLogFromTensor(triples, {8, 8, 8}, 0);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->num_epochs(), 1);
}

TEST(DeltaLog, BinaryRoundTripPreservesEpochsAndOpenBuffer) {
  Result<DeltaLog> log = DeltaLog::Create({5, 5, 5});
  ASSERT_TRUE(log.ok());
  ASSERT_OK(log->Append({0, 1, 2}, 1.5));
  ASSERT_OK(log->Append({4, 4, 4}, -2.0));
  ASSERT_OK(log->SealEpoch().status());
  ASSERT_OK(log->Append({3, 3, 3}, 7.0));
  ASSERT_OK(log->Append({3, 3, 3}, -7.0));
  ASSERT_OK(log->SealEpoch().status());  // epoch 1 is empty after cancel
  ASSERT_OK(log->Append({2, 0, 1}, 9.0));  // unsealed tail

  const std::string path = TempPath("roundtrip.bin");
  ASSERT_OK(WriteDeltaLogBinary(*log, path));
  Result<DeltaLog> read = ReadDeltaLogBinary(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->dims(), log->dims());
  ASSERT_EQ(read->num_epochs(), 2);
  EXPECT_TRUE(read->epoch(0).IdenticalTo(log->epoch(0)));
  EXPECT_TRUE(read->epoch(1).IdenticalTo(log->epoch(1)));
  EXPECT_EQ(read->open_appends(), 1);
  // The tail seals into the same delta as the original's would.
  ASSERT_OK(read->SealEpoch().status());
  EXPECT_DOUBLE_EQ(read->epoch(2).Get({2, 0, 1}), 9.0);
  std::remove(path.c_str());
}

TEST(DeltaLog, BinaryReadRejectsCorruption) {
  Result<DeltaLog> log = DeltaLog::Create({4, 4});
  ASSERT_TRUE(log.ok());
  ASSERT_OK(log->Append({1, 1}, 3.0));
  ASSERT_OK(log->SealEpoch().status());
  const std::string path = TempPath("corrupt.bin");
  ASSERT_OK(WriteDeltaLogBinary(*log, path));

  // Flip one byte in the middle of the file: the checksum must catch it.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 16u);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  Result<DeltaLog> read = ReadDeltaLogBinary(path);
  EXPECT_FALSE(read.ok());

  // Truncation is caught too.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  Result<DeltaLog> truncated = ReadDeltaLogBinary(path);
  EXPECT_FALSE(truncated.ok());
  std::remove(path.c_str());
}

template <typename T>
void PutRaw(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// The delta-log body checksum (an XOR-fold, mirrored from
/// src/tensor/delta_log.cc) so a forged body passes the integrity check and
/// reaches the entry parser.
uint64_t BodyChecksum(const std::string& body) {
  uint64_t acc = 0x9e3779b97f4a7c15ULL;
  const size_t full = body.size() / 8;
  for (size_t i = 0; i < full; ++i) {
    uint64_t word;
    std::memcpy(&word, body.data() + i * 8, 8);
    acc ^= word + (acc << 7) + (acc >> 3);
  }
  for (size_t i = full * 8; i < body.size(); ++i) {
    acc ^= static_cast<uint64_t>(static_cast<unsigned char>(body[i]))
           << ((i % 8) * 8);
  }
  return acc;
}

// An epoch block may claim any entry count up to the format's sanity cap;
// the reader must check it against the bytes the body holds before
// reserving for it, or a forged count aborts the process.
TEST(DeltaLog, ForgedEntryCountIsRejectedBeforeAllocating) {
  std::string body;
  PutRaw<int64_t>(&body, int64_t{1} << 40);  // epoch 0 claims 2^40 entries
  PutRaw<int64_t>(&body, 0);                 // empty unsealed tail
  std::string file("HATEN2D\0", 8);
  PutRaw<uint32_t>(&file, 1);  // version
  PutRaw<int32_t>(&file, 2);   // order
  PutRaw<int64_t>(&file, 4);
  PutRaw<int64_t>(&file, 4);
  PutRaw<int64_t>(&file, 1);  // one sealed epoch
  file += body;
  PutRaw<uint64_t>(&file, BodyChecksum(body));
  const std::string path = TempPath("forged.bin");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(file.data(), static_cast<std::streamsize>(file.size()));
  }
  Result<DeltaLog> read = ReadDeltaLogBinary(path);
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsInvalidArgument()) << read.status().ToString();
  std::remove(path.c_str());
}

TEST(DeltaLog, MergedViewFromMidLog) {
  Result<DeltaLog> log = DeltaLog::Create({4, 4});
  ASSERT_TRUE(log.ok());
  ASSERT_OK(log->Append({0, 0}, 1.0));
  ASSERT_OK(log->SealEpoch().status());
  ASSERT_OK(log->Append({1, 1}, 2.0));
  ASSERT_OK(log->SealEpoch().status());
  Result<SparseTensor> empty = SparseTensor::Create({4, 4});
  ASSERT_TRUE(empty.ok());
  Result<SparseTensor> tail = log->MergedView(*empty, /*first_epoch=*/1);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail->nnz(), 1);
  EXPECT_DOUBLE_EQ(tail->Get({1, 1}), 2.0);
}

/// Expects every index of `t` to lie inside `dims`.
void ExpectInBounds(const SparseTensor& t, const std::vector<int64_t>& dims) {
  ASSERT_EQ(t.dims(), dims);
  for (int64_t e = 0; e < t.nnz(); ++e) {
    for (int m = 0; m < t.order(); ++m) {
      EXPECT_GE(t.index(e, m), 0);
      EXPECT_LT(t.index(e, m), dims[static_cast<size_t>(m)]);
    }
  }
}

TEST(DeltaLog, MutatedFilesFailCleanlyOrStayInBounds) {
  // Seeded mutations of valid logs of orders 1-3, each with sealed epochs
  // and an unsealed tail. Every case must be rejected with a Status or
  // read as a log whose every index lies inside its dims. Half the cases
  // re-seal the body checksum, so the mutation reaches the entry parser
  // instead of the integrity check.
  const std::string path = testing::PerTestDir() + "/fuzz.log";
  Rng rng(817);
  std::vector<std::string> seeds;
  for (const std::vector<int64_t>& dims :
       std::vector<std::vector<int64_t>>{{40}, {8, 6}, {5, 4, 3}}) {
    SparseTensor triples = RandomSparseTensor(dims, 10, &rng);
    Result<DeltaLog> log = DeltaLogFromTensor(triples, dims, /*epoch_nnz=*/4);
    ASSERT_OK(log.status());
    ASSERT_OK(log->Append(triples.IndexPtr(0), triples.order(), 1.5));
    ASSERT_OK(WriteDeltaLogBinary(*log, path));
    seeds.push_back(testing::ReadFileBytes(path));
  }
  constexpr int kCases = 12000;
  testing::FuzzCounts counts = testing::FuzzMutations(
      seeds, kCases, 20261021, [&path](int c, std::string bytes) {
        if ((c / 4) % 2 == 1) testing::ResealBinaryChecksum(&bytes);
        testing::WriteFileBytes(path, bytes);
        Result<DeltaLog> log = ReadDeltaLogBinary(path);
        if (!log.ok()) {
          EXPECT_TRUE(log.status().IsInvalidArgument() ||
                      log.status().IsOutOfRange())
              << log.status().ToString();
          return false;
        }
        // Sealing moves the unsealed tail into an epoch, where it can be
        // checked like the others.
        if (log->open_appends() > 0) EXPECT_OK(log->SealEpoch().status());
        for (int64_t i = 0; i < log->num_epochs(); ++i) {
          ExpectInBounds(log->epoch(i), log->dims());
        }
        return true;
      });
  EXPECT_EQ(counts.accepted + counts.rejected, kCases);
  EXPECT_GT(counts.accepted, 0);
  EXPECT_GT(counts.rejected, 0);
}

}  // namespace
}  // namespace haten2
