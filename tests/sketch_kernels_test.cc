// Tests for the seeded Gaussian sketch operators (linalg/sketch.h):
// determinism at a fixed seed, shape and validation errors, and norm
// preservation in expectation.

#include "linalg/sketch.h"

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/linalg.h"
#include "test_util.h"
#include "util/random.h"

namespace haten2 {
namespace {

TEST(SketchOperator, ShapesMatchRequest) {
  Result<DenseMatrix> omega = SketchOperator(7, 12, 42);
  ASSERT_OK(omega.status());
  EXPECT_EQ(omega->rows(), 7);
  EXPECT_EQ(omega->cols(), 12);
}

TEST(SketchOperator, RejectsBadShapes) {
  EXPECT_TRUE(SketchOperator(0, 4, 1).status().IsInvalidArgument());
  EXPECT_TRUE(SketchOperator(-3, 4, 1).status().IsInvalidArgument());
  EXPECT_TRUE(SketchOperator(5, 0, 1).status().IsInvalidArgument());
  EXPECT_TRUE(SketchOperator(5, -1, 1).status().IsInvalidArgument());
}

TEST(SketchOperator, BitIdenticalAtFixedSeedDifferentAcrossSeeds) {
  Result<DenseMatrix> a = SketchOperator(9, 6, 1234);
  Result<DenseMatrix> b = SketchOperator(9, 6, 1234);
  Result<DenseMatrix> c = SketchOperator(9, 6, 1235);
  ASSERT_OK(a.status());
  ASSERT_OK(b.status());
  ASSERT_OK(c.status());
  bool identical = true;
  bool differs_from_c = false;
  for (int64_t i = 0; i < a->rows(); ++i) {
    for (int64_t j = 0; j < a->cols(); ++j) {
      identical = identical && (*a)(i, j) == (*b)(i, j);
      differs_from_c = differs_from_c || (*a)(i, j) != (*c)(i, j);
    }
  }
  EXPECT_TRUE(identical);
  EXPECT_TRUE(differs_from_c);
}

TEST(SketchOperator, GaussianPreservesNormsInExpectation) {
  // E||xΩ||² = ||x||² for N(0, 1/s) entries; with s = 64 columns the
  // relative deviation concentrates well inside ±40%.
  Result<DenseMatrix> omega = SketchOperator(16, 64, 99);
  ASSERT_OK(omega.status());
  Rng rng(5);
  DenseMatrix x = DenseMatrix::RandomNormal(1, 16, &rng);
  Result<DenseMatrix> y = MatMul(x, *omega);
  ASSERT_OK(y.status());
  double x_sq = 0.0, y_sq = 0.0;
  for (int64_t j = 0; j < x.cols(); ++j) x_sq += x(0, j) * x(0, j);
  for (int64_t j = 0; j < y->cols(); ++j) y_sq += (*y)(0, j) * (*y)(0, j);
  EXPECT_GT(y_sq, 0.6 * x_sq);
  EXPECT_LT(y_sq, 1.4 * x_sq);
}

TEST(ApplySketch, MatchesMaterializedOperator) {
  Rng rng(11);
  DenseMatrix a = DenseMatrix::RandomNormal(13, 5, &rng);
  Result<DenseMatrix> direct = ApplySketch(a, 9, 321);
  Result<DenseMatrix> omega = SketchOperator(5, 9, 321);
  ASSERT_OK(direct.status());
  ASSERT_OK(omega.status());
  Result<DenseMatrix> expected = MatMul(a, *omega);
  ASSERT_OK(expected.status());
  EXPECT_EQ(direct->rows(), 13);
  EXPECT_EQ(direct->cols(), 9);
  for (int64_t i = 0; i < direct->rows(); ++i) {
    for (int64_t j = 0; j < direct->cols(); ++j) {
      EXPECT_EQ((*direct)(i, j), (*expected)(i, j));
    }
  }
}

TEST(ApplySketch, RejectsBadSketchSize) {
  Rng rng(12);
  DenseMatrix a = DenseMatrix::RandomNormal(4, 3, &rng);
  EXPECT_TRUE(ApplySketch(a, 0, 1).status().IsInvalidArgument());
  EXPECT_TRUE(ApplySketch(a, -2, 1).status().IsInvalidArgument());
}

TEST(SketchSeedForMode, ModesDrawIndependentSeeds) {
  EXPECT_NE(SketchSeedForMode(17, 0), SketchSeedForMode(17, 1));
  EXPECT_NE(SketchSeedForMode(17, 0), SketchSeedForMode(18, 0));
  EXPECT_EQ(SketchSeedForMode(17, 2), SketchSeedForMode(17, 2));
}

}  // namespace
}  // namespace haten2
