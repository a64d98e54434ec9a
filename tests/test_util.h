#ifndef HATEN2_TESTS_TEST_UTIL_H_
#define HATEN2_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "tensor/dense_matrix.h"
#include "tensor/sparse_tensor.h"
#include "util/logging.h"
#include "util/random.h"

namespace haten2 {
namespace testing {

/// Builds a random sparse tensor with the given dims and approximately
/// `nnz` distinct nonzero coordinates, values Uniform(0.5, 1.5).
inline SparseTensor RandomSparseTensor(const std::vector<int64_t>& dims,
                                       int64_t nnz, Rng* rng) {
  Result<SparseTensor> r = SparseTensor::Create(dims);
  HATEN2_CHECK(r.ok()) << r.status().ToString();
  SparseTensor t = std::move(r).value();
  t.Reserve(nnz);
  std::vector<int64_t> idx(dims.size());
  for (int64_t e = 0; e < nnz; ++e) {
    for (size_t m = 0; m < dims.size(); ++m) {
      idx[m] = static_cast<int64_t>(
          rng->UniformInt(static_cast<uint64_t>(dims[m])));
    }
    t.AppendUnchecked(idx.data(), rng->Uniform(0.5, 1.5));
  }
  t.Canonicalize();
  return t;
}

/// A scratch directory under TempDir() named after the running test
/// (created if missing). ctest runs every test case as its own process, in
/// parallel under -j, so a directory shared between cases lets one case
/// see — and overwrite — another case's files.
inline std::string PerTestDir() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = "haten2";
  if (info != nullptr) {
    name += std::string("_") + info->test_suite_name() + "." + info->name();
  }
  for (char& c : name) {
    if (c == '/') c = '_';  // parameterized test names
  }
  std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::create_directories(dir);
  return dir;
}

#define ASSERT_OK(expr)                                               \
  do {                                                                \
    const auto _s = (expr);                                          \
    ASSERT_TRUE(_s.ok()) << _s.ToString();                            \
  } while (false)

#define EXPECT_OK(expr)                                               \
  do {                                                                \
    const auto _s = (expr);                                          \
    EXPECT_TRUE(_s.ok()) << _s.ToString();                            \
  } while (false)

}  // namespace testing
}  // namespace haten2

#endif  // HATEN2_TESTS_TEST_UTIL_H_
