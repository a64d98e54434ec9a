// Tests for the binary tensor format: round-trips, auto-detection, and
// corruption handling (truncation, bad magic, checksum mismatch, and a
// seeded mutation fuzz of whole files).

#include "tensor/tensor_binary_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "mutation_fuzz.h"
#include "tensor/tensor_io.h"
#include "test_util.h"
#include "util/random.h"

namespace haten2 {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(TensorBinaryIo, RoundTripsExactly) {
  Rng rng(811);
  SparseTensor t =
      haten2::testing::RandomSparseTensor({40, 30, 20, 10}, 200, &rng);
  std::string path = TempPath("t.htb");
  ASSERT_OK(WriteTensorBinary(t, path));
  Result<SparseTensor> back = ReadTensorBinary(path);
  ASSERT_OK(back.status());
  EXPECT_TRUE(back->IdenticalTo(t));
  std::remove(path.c_str());
}

TEST(TensorBinaryIo, EmptyTensorRoundTrips) {
  Result<SparseTensor> t = SparseTensor::Create3(5, 6, 7);
  ASSERT_OK(t.status());
  std::string path = TempPath("empty.htb");
  ASSERT_OK(WriteTensorBinary(*t, path));
  Result<SparseTensor> back = ReadTensorBinary(path);
  ASSERT_OK(back.status());
  EXPECT_EQ(back->dims(), t->dims());
  EXPECT_EQ(back->nnz(), 0);
  std::remove(path.c_str());
}

TEST(TensorBinaryIo, AutoDetectsBothFormats) {
  Rng rng(812);
  SparseTensor t = haten2::testing::RandomSparseTensor({10, 10, 10}, 30,
                                                       &rng);
  std::string bin_path = TempPath("auto.htb");
  std::string txt_path = TempPath("auto.tns");
  ASSERT_OK(WriteTensorBinary(t, bin_path));
  ASSERT_OK(WriteTensorText(t, txt_path));
  Result<SparseTensor> from_bin = ReadTensorAuto(bin_path);
  Result<SparseTensor> from_txt = ReadTensorAuto(txt_path);
  ASSERT_OK(from_bin.status());
  ASSERT_OK(from_txt.status());
  EXPECT_TRUE(from_bin->IdenticalTo(t));
  EXPECT_TRUE(from_txt->IdenticalTo(t));
  std::remove(bin_path.c_str());
  std::remove(txt_path.c_str());
}

TEST(TensorBinaryIo, DetectsCorruption) {
  Rng rng(813);
  SparseTensor t = haten2::testing::RandomSparseTensor({10, 10, 10}, 50,
                                                       &rng);
  std::string path = TempPath("corrupt.htb");
  ASSERT_OK(WriteTensorBinary(t, path));

  // Flip one byte in the middle of the entries.
  {
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(100);
    char byte;
    f.seekg(100);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(100);
    f.write(&byte, 1);
  }
  Result<SparseTensor> r = ReadTensorBinary(path);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
  std::remove(path.c_str());
}

TEST(TensorBinaryIo, DetectsTruncation) {
  Rng rng(814);
  SparseTensor t = haten2::testing::RandomSparseTensor({10, 10, 10}, 50,
                                                       &rng);
  std::string path = TempPath("trunc.htb");
  ASSERT_OK(WriteTensorBinary(t, path));
  // Rewrite with the last 16 bytes dropped.
  {
    std::ifstream in(path, std::ios::binary);
    std::string all((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(all.data(),
              static_cast<std::streamsize>(all.size() - 16));
  }
  Result<SparseTensor> r = ReadTensorBinary(path);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  std::remove(path.c_str());
}

TEST(TensorBinaryIo, RejectsWrongMagicAndMissingFile) {
  std::string path = TempPath("notbinary.htb");
  {
    std::ofstream out(path, std::ios::binary);
    out << "definitely not a tensor";
  }
  EXPECT_TRUE(ReadTensorBinary(path).status().IsInvalidArgument());
  EXPECT_TRUE(ReadTensorBinary("/nonexistent/t.htb").status().IsIOError());
  EXPECT_TRUE(ReadTensorAuto("/nonexistent/t.htb").status().IsIOError());
  std::remove(path.c_str());
}

// A header may claim any nnz up to the format's sanity cap; the reader must
// check the claim against the bytes the file holds before allocating for
// it, or a 48-byte file aborts the process.
TEST(TensorBinaryIo, ForgedNnzIsRejectedBeforeAllocating) {
  std::string file("HATEN2T\0", 8);
  auto put = [&file](auto value) {
    file.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  put(uint32_t{1});  // version
  put(int32_t{3});   // order
  for (int m = 0; m < 3; ++m) put(int64_t{10});
  put(int64_t{1} << 40);  // nnz; no entries follow
  ASSERT_EQ(file.size(), 48u);
  std::string path = TempPath("forged.htb");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(file.data(), static_cast<std::streamsize>(file.size()));
  }
  Result<SparseTensor> r = ReadTensorBinary(path);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
  EXPECT_TRUE(ReadTensorAuto(path).status().IsInvalidArgument());
  std::remove(path.c_str());
}

TEST(TensorBinaryIo, BinaryIsSmallerThanTextForLargeTensors) {
  // The advantage appears at the paper's billion-scale index widths, where
  // a text record is ~50 characters vs 32 binary bytes.
  Rng rng(815);
  SparseTensor t = haten2::testing::RandomSparseTensor(
      {1000000000, 1000000000, 1000000000}, 5000, &rng);
  std::string bin_path = TempPath("size.htb");
  std::string txt_path = TempPath("size.tns");
  ASSERT_OK(WriteTensorBinary(t, bin_path));
  ASSERT_OK(WriteTensorText(t, txt_path));
  auto file_size = [](const std::string& p) {
    std::ifstream f(p, std::ios::binary | std::ios::ate);
    return static_cast<int64_t>(f.tellg());
  };
  EXPECT_LT(file_size(bin_path), file_size(txt_path));
  std::remove(bin_path.c_str());
  std::remove(txt_path.c_str());
}

TEST(TensorBinaryIo, MutatedFilesFailCleanlyOrStayInBounds) {
  // Seeded mutations of valid files of orders 1-4. Every case must be
  // rejected with a Status or read as a tensor whose every index lies
  // inside its dims. Half the cases re-seal the body checksum, so the
  // mutation reaches the entry parser instead of the integrity check.
  const std::string path = haten2::testing::PerTestDir() + "/fuzz.htb";
  Rng rng(816);
  std::vector<std::string> seeds;
  for (const std::vector<int64_t>& dims :
       std::vector<std::vector<int64_t>>{{50}, {9, 7}, {6, 5, 4},
                                         {4, 3, 3, 2}}) {
    ASSERT_OK(WriteTensorBinary(
        haten2::testing::RandomSparseTensor(dims, 12, &rng), path));
    seeds.push_back(haten2::testing::ReadFileBytes(path));
  }
  constexpr int kCases = 12000;
  haten2::testing::FuzzCounts counts = haten2::testing::FuzzMutations(
      seeds, kCases, 20261020, [&path](int c, std::string bytes) {
        if ((c / 4) % 2 == 1) haten2::testing::ResealBinaryChecksum(&bytes);
        haten2::testing::WriteFileBytes(path, bytes);
        Result<SparseTensor> t = ReadTensorBinary(path);
        if (!t.ok()) {
          EXPECT_TRUE(t.status().IsInvalidArgument() ||
                      t.status().IsOutOfRange())
              << t.status().ToString();
          return false;
        }
        for (int64_t e = 0; e < t->nnz(); ++e) {
          for (int m = 0; m < t->order(); ++m) {
            EXPECT_GE(t->index(e, m), 0);
            EXPECT_LT(t->index(e, m), t->dim(m));
          }
        }
        return true;
      });
  EXPECT_EQ(counts.accepted + counts.rejected, kCases);
  EXPECT_GT(counts.accepted, 0);
  EXPECT_GT(counts.rejected, 0);
}

}  // namespace
}  // namespace haten2
