// Unit tests for DenseMatrix and DenseTensor basics, plus the model fit
// helpers in tensor/models.h.

#include "tensor/dense_matrix.h"

#include <gtest/gtest.h>

#include <cmath>

#include "tensor/dense_tensor.h"
#include "tensor/models.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"
#include "util/random.h"

namespace haten2 {
namespace {

TEST(DenseMatrixBasics, ConstructionAndAccess) {
  DenseMatrix empty;
  EXPECT_EQ(empty.rows(), 0);
  EXPECT_EQ(empty.cols(), 0);

  DenseMatrix m(3, 2);
  EXPECT_EQ(m.size(), 6);
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 2; ++j) EXPECT_DOUBLE_EQ(m(i, j), 0.0);
  }
  m(1, 1) = 4.5;
  EXPECT_DOUBLE_EQ(m(1, 1), 4.5);
  EXPECT_DOUBLE_EQ(m.At(1, 1).value(), 4.5);
  EXPECT_TRUE(m.At(3, 0).status().IsOutOfRange());
  EXPECT_TRUE(m.At(0, -1).status().IsOutOfRange());
}

TEST(DenseMatrixBasics, FromRowsAndIdentity) {
  DenseMatrix m = DenseMatrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_DOUBLE_EQ(m(1, 2), 6.0);
  DenseMatrix i3 = DenseMatrix::Identity(3);
  EXPECT_DOUBLE_EQ(i3(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(i3(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(i3.FrobeniusNorm(), std::sqrt(3.0));
}

TEST(DenseMatrixBasics, TransposeAndArithmetic) {
  DenseMatrix m = DenseMatrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  DenseMatrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_DOUBLE_EQ(t(0, 2), 5.0);
  DenseMatrix a = DenseMatrix::FromRows({{1, 1}, {1, 1}, {1, 1}});
  DenseMatrix sum = m;
  sum.AddInPlace(a);
  EXPECT_DOUBLE_EQ(sum(2, 1), 7.0);
  sum.SubInPlace(a);
  EXPECT_DOUBLE_EQ(sum.MaxAbsDiff(m), 0.0);
  sum.ScaleInPlace(2.0);
  EXPECT_DOUBLE_EQ(sum(0, 1), 4.0);
}

TEST(DenseMatrixBasics, ColumnsAndFill) {
  DenseMatrix m = DenseMatrix::FromRows({{1, 2}, {3, 4}});
  EXPECT_EQ(m.Column(1), (std::vector<double>{2, 4}));
  m.SetColumn(0, {7, 8});
  EXPECT_DOUBLE_EQ(m(1, 0), 8.0);
  m.Fill(0.5);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(m(1, 1), 0.5);
}

TEST(DenseMatrixBasics, RandomGenerators) {
  Rng rng(91);
  DenseMatrix u = DenseMatrix::RandomUniform(50, 4, &rng);
  for (double v : u.data()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
  DenseMatrix n = DenseMatrix::RandomNormal(50, 4, &rng);
  double mean = 0.0;
  for (double v : n.data()) mean += v;
  mean /= static_cast<double>(n.size());
  EXPECT_LT(std::fabs(mean), 0.3);
}

TEST(DenseTensorBasics, CreateOffsetsAndNorm) {
  Result<DenseTensor> t = DenseTensor::Create({2, 3, 4});
  ASSERT_OK(t.status());
  EXPECT_EQ(t->size(), 24);
  t->at({1, 2, 3}) = 5.0;
  EXPECT_DOUBLE_EQ(t->at3(1, 2, 3), 5.0);
  EXPECT_DOUBLE_EQ(t->FrobeniusNorm(), 5.0);
  EXPECT_TRUE(DenseTensor::Create({}).status().IsInvalidArgument());
  EXPECT_TRUE(DenseTensor::Create({2, 0}).status().IsInvalidArgument());
  EXPECT_TRUE(DenseTensor::Create({100000, 100000, 100000})
                  .status()
                  .IsResourceExhausted());
}

TEST(DenseTensorBasics, SparseRoundTrip) {
  Rng rng(92);
  SparseTensor s = haten2::testing::RandomSparseTensor({6, 5, 4}, 20, &rng);
  DenseTensor d = DenseTensor::FromSparse(s);
  SparseTensor back = d.ToSparse();
  EXPECT_TRUE(back.IdenticalTo(s));
}

TEST(ModelFits, PerfectKruskalModelHasFitOne) {
  Rng rng(93);
  KruskalModel model;
  model.lambda = {2.0, 1.0};
  model.factors.push_back(DenseMatrix::RandomNormal(5, 2, &rng));
  model.factors.push_back(DenseMatrix::RandomNormal(4, 2, &rng));
  model.factors.push_back(DenseMatrix::RandomNormal(3, 2, &rng));
  Result<DenseTensor> dense =
      ReconstructKruskal(model.lambda, model.FactorPtrs());
  ASSERT_OK(dense.status());
  SparseTensor x = dense->ToSparse();
  Result<double> fit = KruskalFit(x, model);
  ASSERT_OK(fit.status());
  EXPECT_NEAR(*fit, 1.0, 1e-9);
}

TEST(ModelFits, ZeroModelHasFitZero) {
  Rng rng(94);
  SparseTensor x = haten2::testing::RandomSparseTensor({4, 4, 4}, 10, &rng);
  KruskalModel model;
  model.lambda = {0.0};
  model.factors.assign(3, DenseMatrix(4, 1));
  Result<double> fit = KruskalFit(x, model);
  ASSERT_OK(fit.status());
  EXPECT_NEAR(*fit, 0.0, 1e-12);
}

// KruskalFit and the PARAFAC driver share the final step. A residual that
// cancels to just below zero must clamp to a perfect fit, not a NaN.
TEST(ModelFits, FitFromTermsClampsCancellationToFitOne) {
  EXPECT_DOUBLE_EQ(KruskalFitFromTerms(4.0, 1.0, 1.0), 1.0 - std::sqrt(0.75));
  EXPECT_EQ(KruskalFitFromTerms(4.0, 4.0, std::nextafter(4.0, 0.0)), 1.0);
}

TEST(ModelFits, RejectsZeroTensor) {
  Result<SparseTensor> empty = SparseTensor::Create3(3, 3, 3);
  ASSERT_OK(empty.status());
  KruskalModel km;
  km.lambda = {1.0};
  km.factors.assign(3, DenseMatrix(3, 1));
  EXPECT_TRUE(KruskalFit(*empty, km).status().IsInvalidArgument());
  TuckerModel tm;
  Result<DenseTensor> core = DenseTensor::Create({1, 1, 1});
  ASSERT_OK(core.status());
  tm.core = *core;
  tm.factors.assign(3, DenseMatrix(3, 1));
  EXPECT_TRUE(TuckerFit(*empty, tm).status().IsInvalidArgument());
}

TEST(ModelFits, TuckerFitFromCoreNorm) {
  Rng rng(95);
  SparseTensor x = haten2::testing::RandomSparseTensor({5, 5, 5}, 25, &rng);
  TuckerModel tm;
  Result<DenseTensor> core = DenseTensor::Create({2, 2, 2});
  ASSERT_OK(core.status());
  core->at({0, 0, 0}) = 3.0;
  tm.core = *core;
  tm.factors.assign(3, DenseMatrix(5, 2));
  Result<double> fit = TuckerFit(x, tm);
  ASSERT_OK(fit.status());
  double want =
      1.0 - std::sqrt(std::max(x.SumSquares() - 9.0, 0.0) / x.SumSquares());
  EXPECT_NEAR(*fit, want, 1e-12);
}

}  // namespace
}  // namespace haten2
