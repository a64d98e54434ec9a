// Tests for the command-line flag parser and the dense-matrix text format
// used by the CLI tool.

#include "util/flags.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "tensor/tensor_io.h"
#include "test_util.h"
#include "util/random.h"

namespace haten2 {
namespace {

FlagParser Make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return FlagParser(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagParserTest, SeparatesFlagsAndPositionals) {
  FlagParser flags =
      Make({"input.tns", "--rank=5", "--verbose", "second.tns"});
  EXPECT_EQ(flags.positional(),
            (std::vector<std::string>{"input.tns", "second.tns"}));
  EXPECT_TRUE(flags.Has("rank"));
  EXPECT_TRUE(flags.Has("verbose"));
  EXPECT_FALSE(flags.Has("rnak"));
}

TEST(FlagParserTest, TypedGettersWithDefaults) {
  FlagParser flags = Make({"--rank=5", "--tol=1e-3", "--name=x",
                           "--flag=false"});
  EXPECT_EQ(flags.GetInt("rank", 10).value(), 5);
  EXPECT_EQ(flags.GetInt("missing", 10).value(), 10);
  EXPECT_DOUBLE_EQ(flags.GetDouble("tol", 1.0).value(), 1e-3);
  EXPECT_EQ(flags.GetString("name", "y"), "x");
  EXPECT_EQ(flags.GetString("missing", "y"), "y");
  EXPECT_FALSE(flags.GetBool("flag", true));
  EXPECT_TRUE(flags.GetBool("missing", true));
  FlagParser bare = Make({"--on"});
  EXPECT_TRUE(bare.GetBool("on", false));
}

TEST(FlagParserTest, ParseErrorsSurface) {
  FlagParser flags = Make({"--rank=abc", "--tol=zz"});
  EXPECT_TRUE(flags.GetInt("rank", 1).status().IsInvalidArgument());
  EXPECT_TRUE(flags.GetDouble("tol", 1.0).status().IsInvalidArgument());
}

TEST(FlagParserTest, Int32FlagRejectsValuesOutsideInt) {
  FlagParser flags = Make({"--machines=4294967336", "--threads=-4294967295",
                           "--attempts=2147483647", "--low=-2147483648"});
  for (const char* name : {"machines", "threads"}) {
    Result<int> v = flags.GetInt32(name, 1);
    ASSERT_TRUE(v.status().IsInvalidArgument()) << name;
    EXPECT_NE(v.status().message().find(std::string("--") + name),
              std::string::npos)
        << v.status().message();
  }
  EXPECT_EQ(flags.GetInt32("attempts", 1).value(), 2147483647);
  EXPECT_EQ(flags.GetInt32("low", 1).value(), -2147483647 - 1);
  EXPECT_EQ(flags.GetInt32("missing", 7).value(), 7);
}

TEST(FlagParserTest, DimsFlag) {
  FlagParser flags = Make({"--core=4x5x6", "--bad=4xx6"});
  EXPECT_EQ(flags.GetDims("core", {}).value(),
            (std::vector<int64_t>{4, 5, 6}));
  EXPECT_EQ(flags.GetDims("missing", {2, 2}).value(),
            (std::vector<int64_t>{2, 2}));
  EXPECT_TRUE(flags.GetDims("bad", {}).status().IsInvalidArgument());
}

TEST(FlagParserTest, ValidateCatchesTypos) {
  FlagParser flags = Make({"--rank=5", "--croe=3x3x3"});
  EXPECT_OK(flags.Validate({"rank", "croe"}));
  Status s = flags.Validate({"rank", "core"});
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("croe"), std::string::npos);
}

TEST(MatrixIo, RoundTrips) {
  Rng rng(501);
  DenseMatrix m = DenseMatrix::RandomNormal(7, 4, &rng);
  std::string path = std::string(::testing::TempDir()) + "/m.txt";
  ASSERT_OK(WriteMatrixText(m, path));
  Result<DenseMatrix> back = ReadMatrixText(path);
  ASSERT_OK(back.status());
  ASSERT_TRUE(back->SameShape(m));
  EXPECT_DOUBLE_EQ(back->MaxAbsDiff(m), 0.0);  // %.17g is exact for doubles
  std::remove(path.c_str());
}

TEST(MatrixIo, Errors) {
  EXPECT_TRUE(ReadMatrixText("/nonexistent/m.txt").status().IsIOError());
  std::string path = std::string(::testing::TempDir()) + "/bad.txt";
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("1 2\n3\n", f);  // ragged
    fclose(f);
  }
  EXPECT_TRUE(ReadMatrixText(path).status().IsInvalidArgument());
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("# only a comment\n", f);
    fclose(f);
  }
  EXPECT_TRUE(ReadMatrixText(path).status().IsInvalidArgument());
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("1 x\n", f);
    fclose(f);
  }
  EXPECT_TRUE(ReadMatrixText(path).status().IsInvalidArgument());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace haten2
