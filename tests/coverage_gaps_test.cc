// Tests for corners not covered elsewhere: DenseTensor::Fold error paths,
// FlagParser boolean spellings, Engine with order-2 tensors through the full
// drivers, and SliceBlocks on an empty contraction result.

#include <gtest/gtest.h>

#include "core/contract.h"
#include "core/parafac.h"
#include "core/tucker.h"
#include "tensor/dense_tensor.h"
#include "test_util.h"
#include "util/flags.h"

namespace haten2 {
namespace {

TEST(FoldErrors, RejectsBadShapes) {
  Rng rng(831);
  DenseMatrix mat = DenseMatrix::RandomNormal(3, 8, &rng);
  // 3 x 8 folds into {3, 4, 2} at mode 0...
  ASSERT_OK(DenseTensor::Fold(mat, 0, {3, 4, 2}).status());
  // ...but not into mismatched dims or modes.
  EXPECT_TRUE(DenseTensor::Fold(mat, 0, {4, 4, 2}).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(DenseTensor::Fold(mat, 3, {3, 4, 2}).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(DenseTensor::Fold(mat, 0, {3, 0, 2}).status()
                  .IsInvalidArgument());
}

TEST(FlagParserSpellings, BooleanForms) {
  const char* argv[] = {"prog", "--a=true", "--b=false", "--c=1", "--d=0",
                        "--e"};
  FlagParser flags(6, argv);
  EXPECT_TRUE(flags.GetBool("a", false));
  EXPECT_FALSE(flags.GetBool("b", true));
  EXPECT_TRUE(flags.GetBool("c", false));
  EXPECT_FALSE(flags.GetBool("d", true));
  EXPECT_TRUE(flags.GetBool("e", false));
}

TEST(OrderTwoDrivers, ParafacAndTuckerOnMatrices) {
  // Order-2 tensors are matrices; PARAFAC degenerates to an SVD-like
  // factorization and Tucker to a two-sided projection. Both drivers must
  // handle them through the full MapReduce path.
  Rng rng(832);
  SparseTensor x = haten2::testing::RandomSparseTensor({20, 15}, 60, &rng);
  Engine engine(ClusterConfig::ForTesting());
  Haten2Options options;
  options.max_iterations = 5;
  Result<KruskalModel> cp = Haten2ParafacAls(&engine, x, 2, options);
  ASSERT_OK(cp.status());
  EXPECT_EQ(cp->factors.size(), 2u);
  Result<TuckerModel> tk = Haten2TuckerAls(&engine, x, {2, 2}, options);
  ASSERT_OK(tk.status());
  EXPECT_EQ(tk->core.order(), 2);
  EXPECT_GT(tk->fit, 0.0);
}

TEST(SliceBlocksEmpty, AllZeroFactorsYieldEmptyRows) {
  // Factors of zeros produce no Hadamard records at all; the contraction
  // still succeeds with an empty (all-zero) result.
  Rng rng(833);
  SparseTensor x = haten2::testing::RandomSparseTensor({6, 5, 4}, 20, &rng);
  DenseMatrix zero_b(5, 2);
  DenseMatrix zero_c(4, 2);
  std::vector<const DenseMatrix*> factors = {nullptr, &zero_b, &zero_c};
  Engine engine(ClusterConfig::ForTesting());
  Result<SliceBlocks> y = MultiModeContract(&engine, x, factors, 0,
                                            MergeKind::kCross,
                                            Variant::kDri);
  ASSERT_OK(y.status());
  EXPECT_TRUE(y->slice_ids.empty());
  EXPECT_EQ(y->values.rows(), 0);
  DenseMatrix dense = y->ToDenseMatrix();
  EXPECT_DOUBLE_EQ(dense.FrobeniusNorm(), 0.0);
}

TEST(StatusMacros, ReturnIfErrorPropagates) {
  auto fails = []() -> Status {
    HATEN2_RETURN_IF_ERROR(Status::NotFound("inner"));
    return Status::Internal("unreachable");
  };
  EXPECT_TRUE(fails().IsNotFound());
  auto succeeds = []() -> Status {
    HATEN2_RETURN_IF_ERROR(Status::OK());
    return Status::OK();
  };
  EXPECT_OK(succeeds());
}

}  // namespace
}  // namespace haten2
