// Tests for the tensor text format: round-trips, header handling, dimension
// inference, and malformed-input errors.

#include "tensor/tensor_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "test_util.h"
#include "util/random.h"

namespace haten2 {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(TensorIo, RoundTripsThroughFile) {
  Rng rng(81);
  SparseTensor t = haten2::testing::RandomSparseTensor({12, 9, 7}, 40, &rng);
  std::string path = TempPath("roundtrip.tns");
  ASSERT_OK(WriteTensorText(t, path));
  Result<SparseTensor> back = ReadTensorText(path);
  ASSERT_OK(back.status());
  EXPECT_TRUE(back->IdenticalTo(t));
  std::remove(path.c_str());
}

TEST(TensorIo, RoundTripsThroughString) {
  Rng rng(82);
  SparseTensor t =
      haten2::testing::RandomSparseTensor({5, 5, 5, 5}, 20, &rng);
  Result<SparseTensor> back = ParseTensorText(FormatTensorText(t));
  ASSERT_OK(back.status());
  EXPECT_TRUE(back->IdenticalTo(t));
}

TEST(TensorIo, PreservesExactDoubleValues) {
  Result<SparseTensor> t = SparseTensor::Create3(2, 2, 2);
  ASSERT_OK(t.status());
  ASSERT_OK(t->Append({0, 1, 0}, 0.1 + 0.2));  // 0.30000000000000004
  ASSERT_OK(t->Append({1, 0, 1}, 1e-300));
  t->Canonicalize();
  Result<SparseTensor> back = ParseTensorText(FormatTensorText(*t));
  ASSERT_OK(back.status());
  EXPECT_TRUE(back->IdenticalTo(*t));
}

TEST(TensorIo, InfersDimsWithoutHeader) {
  std::string text =
      "0 0 0 1.5\n"
      "2 4 1 2.5\n"
      "# a comment line\n"
      "1 2 3 -1.0\n";
  Result<SparseTensor> t = ParseTensorText(text);
  ASSERT_OK(t.status());
  EXPECT_EQ(t->dims(), (std::vector<int64_t>{3, 5, 4}));
  EXPECT_EQ(t->nnz(), 3);
  EXPECT_DOUBLE_EQ(t->Get({2, 4, 1}), 2.5);
}

TEST(TensorIo, HeaderFixesDimsLargerThanData) {
  std::string text =
      "# haten2 tensor order=3 dims=100x200x300\n"
      "0 0 0 1\n";
  Result<SparseTensor> t = ParseTensorText(text);
  ASSERT_OK(t.status());
  EXPECT_EQ(t->dims(), (std::vector<int64_t>{100, 200, 300}));
}

TEST(TensorIo, MergesDuplicateRecords) {
  std::string text =
      "1 1 1 2.0\n"
      "1 1 1 3.0\n";
  Result<SparseTensor> t = ParseTensorText(text);
  ASSERT_OK(t.status());
  EXPECT_EQ(t->nnz(), 1);
  EXPECT_DOUBLE_EQ(t->Get({1, 1, 1}), 5.0);
}

TEST(TensorIo, RejectsMalformedInput) {
  EXPECT_TRUE(ParseTensorText("").status().IsInvalidArgument());
  EXPECT_TRUE(ParseTensorText("# only comments\n").status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseTensorText("1\n").status().IsInvalidArgument());
  EXPECT_TRUE(ParseTensorText("1 2 x 3.0\n").status().IsInvalidArgument());
  EXPECT_TRUE(ParseTensorText("1 2 3 zzz\n").status().IsInvalidArgument());
  EXPECT_TRUE(ParseTensorText("-1 2 3 1.0\n").status().IsInvalidArgument());
  // Mixed arity.
  EXPECT_TRUE(ParseTensorText("1 2 3 1.0\n1 2 1.0\n").status()
                  .IsInvalidArgument());
  // Out-of-header-bounds record.
  std::string text =
      "# haten2 tensor order=3 dims=2x2x2\n"
      "5 0 0 1.0\n";
  EXPECT_TRUE(ParseTensorText(text).status().IsOutOfRange());
}

TEST(TensorIo, RejectsIndicesThatOverflowNamingTheLine) {
  // -2^63 in a 1-based file: shifting it to 0-based would overflow.
  TensorTextOptions one_based;
  one_based.index_base = 1;
  Status low =
      ParseTensorText("1 1 1.0\n-9223372036854775808 1 1.0\n", one_based)
          .status();
  EXPECT_TRUE(low.IsInvalidArgument()) << low.ToString();
  EXPECT_NE(low.message().find("line 2:"), std::string::npos)
      << low.ToString();
  // 2^63 - 1 without a header: its inferred mode size would overflow.
  Status high =
      ParseTensorText("0 0 1.0\n\n0 9223372036854775807 1.0\n").status();
  EXPECT_TRUE(high.IsInvalidArgument()) << high.ToString();
  EXPECT_NE(high.message().find("line 3:"), std::string::npos)
      << high.ToString();
}

TEST(TensorIo, RejectsHeaderAfterRecordsNamingTheLine) {
  // Switching to a late header's dims would drop the records before it.
  Status late = ParseTensorText(
                    "0 0 0 1.0\n1 1 1 2.0\n"
                    "# haten2 tensor order=3 dims=4x4x4\n2 2 2 3.0\n")
                    .status();
  EXPECT_TRUE(late.IsInvalidArgument()) << late.ToString();
  EXPECT_NE(late.message().find("line 3:"), std::string::npos)
      << late.ToString();
  // A record of another arity before the header goes the same way.
  Status arity = ParseTensorText(
                     "0 0 1.0\n# haten2 tensor order=3 dims=4x4x4\n"
                     "2 2 2 3.0\n")
                     .status();
  EXPECT_TRUE(arity.IsInvalidArgument()) << arity.ToString();
  EXPECT_NE(arity.message().find("line 2:"), std::string::npos)
      << arity.ToString();
}

TEST(TensorIo, RejectsMalformedTensorHeaderNamingTheLine) {
  // A header whose dims do not parse into positive sizes, or whose order=
  // does not count them, is an error rather than a comment: read as a
  // comment, the file would load with dims inferred from its records.
  for (const char* header :
       {"# haten2 tensor order=3 dims=40x0x40\n",
        "# haten2 tensor order=3 dims=40xfortyx40\n",
        "# haten2 tensor order=3 dims=\n", "# haten2 tensor order=3\n",
        "# haten2 tensor order=2 dims=40x40x40\n",
        "# haten2 tensor order=three dims=40x40x40\n"}) {
    Status s = ParseTensorText(std::string("# written by hand\n") + header +
                               "0 0 0 1.0\n1 1 1 2.0\n")
                   .status();
    EXPECT_TRUE(s.IsInvalidArgument()) << header << s.ToString();
    EXPECT_NE(s.message().find("line 2:"), std::string::npos)
        << header << s.ToString();
  }
  // Free text that mentions the phrase is a comment, and the header
  // without order= still fixes the dims.
  Result<SparseTensor> t = ParseTensorText(
      "# converted to a haten2 tensor by hand\n"
      "# haten2 tensor dims=40x40x40\n1 1 1 2.0\n");
  ASSERT_OK(t.status());
  EXPECT_EQ(t->dims(), (std::vector<int64_t>{40, 40, 40}));
}

TEST(TensorIo, MatrixHeaderMustMatchTheDataNamingTheFile) {
  // A factor file that lost rows or columns must not load as a smaller
  // matrix, and a header that does not parse is no header to trust.
  const std::string path = TempPath("haten2_matrix_torn.txt");
  for (const char* header :
       {"# haten2 matrix rows=3 cols=2\n", "# haten2 matrix rows=2 cols=3\n",
        "# haten2 matrix rows=two cols=2\n"}) {
    std::ofstream(path, std::ios::trunc) << header << "1 2\n3 4\n";
    Status s = ReadMatrixText(path).status();
    EXPECT_TRUE(s.IsInvalidArgument()) << header << s.ToString();
    EXPECT_NE(s.message().find(path), std::string::npos) << s.ToString();
  }
  std::remove(path.c_str());
}

TEST(TensorIo, MissingFileIsIOError) {
  Result<SparseTensor> r = ReadTensorText("/nonexistent/path/t.tns");
  EXPECT_TRUE(r.status().IsIOError());
  Result<SparseTensor> t = SparseTensor::Create3(2, 2, 2);
  ASSERT_OK(t.status());
  EXPECT_TRUE(WriteTensorText(*t, "/nonexistent/path/t.tns").IsIOError());
}

TEST(TensorIo, OneBasedFrosttStyleFiles) {
  // FROSTT files: 1-based coordinates, no header.
  std::string text =
      "1 1 1 2.5\n"
      "3 2 4 1.0\n";
  TensorTextOptions options;
  options.index_base = 1;
  Result<SparseTensor> t = ParseTensorText(text, options);
  ASSERT_OK(t.status());
  EXPECT_EQ(t->dims(), (std::vector<int64_t>{3, 2, 4}));
  EXPECT_DOUBLE_EQ(t->Get({0, 0, 0}), 2.5);
  EXPECT_DOUBLE_EQ(t->Get({2, 1, 3}), 1.0);
  // A 0 index in a 1-based file is an error.
  EXPECT_TRUE(ParseTensorText("0 1 1 1.0\n", options)
                  .status()
                  .IsInvalidArgument());
  // Default parsing is unchanged (0-based).
  Result<SparseTensor> zero_based = ParseTensorText(text);
  ASSERT_OK(zero_based.status());
  EXPECT_EQ(zero_based->dims(), (std::vector<int64_t>{4, 3, 5}));
}

TEST(TensorIo, FuzzedGarbageNeverCrashes) {
  // Random byte soup must produce an error or a valid tensor — never a
  // crash or an invalid object.
  Rng rng(881);
  const char alphabet[] = "0123456789 .-exX#\n\t abcdef";
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbage;
    int64_t len = 1 + static_cast<int64_t>(rng.UniformInt(uint64_t{200}));
    for (int64_t i = 0; i < len; ++i) {
      garbage += alphabet[rng.UniformInt(
          uint64_t{sizeof(alphabet) - 1})];
    }
    Result<SparseTensor> r = ParseTensorText(garbage);
    if (r.ok()) {
      EXPECT_OK(r->Validate());
    }
  }
}

TEST(TensorIo, EmptyTensorWithHeaderRoundTrips) {
  Result<SparseTensor> t = SparseTensor::Create3(4, 5, 6);
  ASSERT_OK(t.status());
  Result<SparseTensor> back = ParseTensorText(FormatTensorText(*t));
  ASSERT_OK(back.status());
  EXPECT_EQ(back->dims(), t->dims());
  EXPECT_EQ(back->nnz(), 0);
}

}  // namespace
}  // namespace haten2
