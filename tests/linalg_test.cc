// Unit and property tests for the dense linear-algebra kernels.

#include "linalg/linalg.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "tensor/tensor_ops.h"
#include "test_util.h"
#include "util/random.h"

namespace haten2 {
namespace {

TEST(MatMulOp, HandComputedAndShapes) {
  DenseMatrix a = DenseMatrix::FromRows({{1, 2}, {3, 4}});
  DenseMatrix b = DenseMatrix::FromRows({{5, 6, 7}, {8, 9, 10}});
  Result<DenseMatrix> c = MatMul(a, b);
  ASSERT_OK(c.status());
  EXPECT_DOUBLE_EQ((*c)(0, 0), 21.0);
  EXPECT_DOUBLE_EQ((*c)(1, 2), 61.0);
  EXPECT_TRUE(MatMul(b, a).status().IsInvalidArgument());
}

TEST(MatMulTransAOp, EqualsExplicitTranspose) {
  Rng rng(41);
  DenseMatrix a = DenseMatrix::RandomNormal(7, 4, &rng);
  DenseMatrix b = DenseMatrix::RandomNormal(7, 3, &rng);
  Result<DenseMatrix> fast = MatMulTransA(a, b);
  Result<DenseMatrix> slow = MatMul(a.Transposed(), b);
  ASSERT_OK(fast.status());
  ASSERT_OK(slow.status());
  EXPECT_LT(fast->MaxAbsDiff(*slow), 1e-12);
}

TEST(GramOp, SymmetricAndCorrect) {
  Rng rng(42);
  DenseMatrix a = DenseMatrix::RandomNormal(10, 4, &rng);
  DenseMatrix g = Gram(a);
  Result<DenseMatrix> want = MatMulTransA(a, a);
  ASSERT_OK(want.status());
  EXPECT_LT(g.MaxAbsDiff(*want), 1e-12);
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(g(i, j), g(j, i));
    }
  }
}

class QrPropertyTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(QrPropertyTest, ReconstructsAndOrthonormal) {
  auto [m, n] = GetParam();
  Rng rng(100 + m * 13 + n);
  DenseMatrix a = DenseMatrix::RandomNormal(m, n, &rng);
  Result<QrResult> qr = QrDecompose(a);
  ASSERT_OK(qr.status());
  EXPECT_TRUE(HasOrthonormalColumns(qr->q, 1e-10));
  Result<DenseMatrix> recon = MatMul(qr->q, qr->r);
  ASSERT_OK(recon.status());
  EXPECT_LT(recon->MaxAbsDiff(a), 1e-10);
  // R upper triangular.
  for (int64_t i = 0; i < qr->r.rows(); ++i) {
    for (int64_t j = 0; j < i; ++j) {
      EXPECT_DOUBLE_EQ(qr->r(i, j), 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, QrPropertyTest,
                         ::testing::Values(std::pair<int, int>{1, 1},
                                           std::pair<int, int>{5, 5},
                                           std::pair<int, int>{8, 3},
                                           std::pair<int, int>{20, 7},
                                           std::pair<int, int>{50, 10}));

TEST(QrOp, RejectsWideMatrix) {
  Rng rng(43);
  DenseMatrix a = DenseMatrix::RandomNormal(3, 5, &rng);
  EXPECT_TRUE(QrDecompose(a).status().IsInvalidArgument());
}

TEST(QrOp, HandlesRankDeficiency) {
  // Two identical columns.
  DenseMatrix a = DenseMatrix::FromRows({{1, 1}, {2, 2}, {3, 3}});
  Result<QrResult> qr = QrDecompose(a);
  ASSERT_OK(qr.status());
  Result<DenseMatrix> recon = MatMul(qr->q, qr->r);
  ASSERT_OK(recon.status());
  EXPECT_LT(recon->MaxAbsDiff(a), 1e-10);
}

TEST(SymmetricEigenOp, DiagonalizesKnownMatrix) {
  // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
  DenseMatrix a = DenseMatrix::FromRows({{2, 1}, {1, 2}});
  Result<EigResult> eig = SymmetricEigen(a);
  ASSERT_OK(eig.status());
  EXPECT_NEAR(eig->eigenvalues[0], 3.0, 1e-10);
  EXPECT_NEAR(eig->eigenvalues[1], 1.0, 1e-10);
  EXPECT_TRUE(HasOrthonormalColumns(eig->eigenvectors, 1e-10));
}

TEST(SymmetricEigenOp, PropertyAVEqualsVLambda) {
  Rng rng(44);
  for (int trial = 0; trial < 5; ++trial) {
    const int64_t n = 3 + trial * 2;
    DenseMatrix b = DenseMatrix::RandomNormal(n + 2, n, &rng);
    DenseMatrix a = Gram(b);  // symmetric PSD
    Result<EigResult> eig = SymmetricEigen(a);
    ASSERT_OK(eig.status());
    Result<DenseMatrix> av = MatMul(a, eig->eigenvectors);
    ASSERT_OK(av.status());
    for (int64_t j = 0; j < n; ++j) {
      for (int64_t i = 0; i < n; ++i) {
        EXPECT_NEAR((*av)(i, j),
                    eig->eigenvalues[static_cast<size_t>(j)] *
                        eig->eigenvectors(i, j),
                    1e-8)
            << "trial " << trial;
      }
    }
    // Descending order.
    for (int64_t j = 1; j < n; ++j) {
      EXPECT_GE(eig->eigenvalues[static_cast<size_t>(j - 1)],
                eig->eigenvalues[static_cast<size_t>(j)] - 1e-12);
    }
  }
}

TEST(SymmetricEigenOp, RejectsNonSymmetric) {
  DenseMatrix a = DenseMatrix::FromRows({{1, 2}, {3, 4}});
  EXPECT_TRUE(SymmetricEigen(a).status().IsInvalidArgument());
  DenseMatrix rect(2, 3);
  EXPECT_TRUE(SymmetricEigen(rect).status().IsInvalidArgument());
}

class SvdPropertyTest : public ::testing::TestWithParam<std::pair<int, int>> {
};

TEST_P(SvdPropertyTest, ReconstructsInput) {
  auto [m, n] = GetParam();
  Rng rng(200 + m * 7 + n);
  DenseMatrix a = DenseMatrix::RandomNormal(m, n, &rng);
  Result<SvdResult> svd = Svd(a);
  ASSERT_OK(svd.status());
  // a == u diag(s) vᵀ
  const int64_t k = static_cast<int64_t>(svd->singular.size());
  DenseMatrix us(m, k);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < k; ++j) {
      us(i, j) = svd->u(i, j) * svd->singular[static_cast<size_t>(j)];
    }
  }
  Result<DenseMatrix> recon = MatMul(us, svd->v.Transposed());
  ASSERT_OK(recon.status());
  EXPECT_LT(recon->MaxAbsDiff(a), 1e-8);
  // Singular values descending and nonnegative.
  for (size_t j = 1; j < svd->singular.size(); ++j) {
    EXPECT_GE(svd->singular[j - 1], svd->singular[j] - 1e-12);
    EXPECT_GE(svd->singular[j], 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SvdPropertyTest,
                         ::testing::Values(std::pair<int, int>{4, 4},
                                           std::pair<int, int>{10, 3},
                                           std::pair<int, int>{3, 10},
                                           std::pair<int, int>{25, 6}));

TEST(PseudoInverseOp, SatisfiesPenroseConditions) {
  Rng rng(45);
  DenseMatrix a = DenseMatrix::RandomNormal(6, 4, &rng);
  Result<DenseMatrix> pinv = PseudoInverse(a);
  ASSERT_OK(pinv.status());
  // A A⁺ A == A and A⁺ A A⁺ == A⁺.
  Result<DenseMatrix> ap = MatMul(a, *pinv);
  ASSERT_OK(ap.status());
  Result<DenseMatrix> apa = MatMul(*ap, a);
  ASSERT_OK(apa.status());
  EXPECT_LT(apa->MaxAbsDiff(a), 1e-8);
  Result<DenseMatrix> pa = MatMul(*pinv, a);
  ASSERT_OK(pa.status());
  Result<DenseMatrix> pap = MatMul(*pa, *pinv);
  ASSERT_OK(pap.status());
  EXPECT_LT(pap->MaxAbsDiff(*pinv), 1e-8);
}

TEST(PseudoInverseOp, HandlesSingularMatrix) {
  // Rank-1 matrix.
  DenseMatrix a = DenseMatrix::FromRows({{1, 2}, {2, 4}});
  Result<DenseMatrix> pinv = PseudoInverse(a);
  ASSERT_OK(pinv.status());
  Result<DenseMatrix> ap = MatMul(a, *pinv);
  ASSERT_OK(ap.status());
  Result<DenseMatrix> apa = MatMul(*ap, a);
  ASSERT_OK(apa.status());
  EXPECT_LT(apa->MaxAbsDiff(a), 1e-10);
}

TEST(LeadingLeftSingularVectorsOp, SpansDominantSubspace) {
  Rng rng(46);
  // Build a matrix with known dominant directions.
  DenseMatrix a = DenseMatrix::RandomNormal(20, 6, &rng);
  Result<DenseMatrix> lead = LeadingLeftSingularVectors(a, 3);
  ASSERT_OK(lead.status());
  EXPECT_TRUE(HasOrthonormalColumns(*lead, 1e-9));
  Result<SvdResult> svd = Svd(a);
  ASSERT_OK(svd.status());
  // Projection of each leading u_j onto span(lead) must be ~1.
  for (int64_t j = 0; j < 3; ++j) {
    double proj = 0.0;
    for (int64_t c = 0; c < 3; ++c) {
      double dot = 0.0;
      for (int64_t i = 0; i < 20; ++i) dot += svd->u(i, j) * (*lead)(i, c);
      proj += dot * dot;
    }
    EXPECT_NEAR(proj, 1.0, 1e-8);
  }
}

TEST(LeadingLeftSingularVectorsOp, CompletesRankDeficientBasis) {
  // Rank-1 matrix, ask for 3 orthonormal columns.
  DenseMatrix a(10, 4);
  for (int64_t i = 0; i < 10; ++i) {
    for (int64_t j = 0; j < 4; ++j) {
      a(i, j) = static_cast<double>(i + 1);  // identical columns
    }
  }
  Result<DenseMatrix> lead = LeadingLeftSingularVectors(a, 3);
  ASSERT_OK(lead.status());
  EXPECT_TRUE(HasOrthonormalColumns(*lead, 1e-8));
}

TEST(LeadingLeftSingularVectorsOp, Validation) {
  Rng rng(47);
  DenseMatrix a = DenseMatrix::RandomNormal(4, 3, &rng);
  EXPECT_TRUE(LeadingLeftSingularVectors(a, 0).status().IsInvalidArgument());
  EXPECT_TRUE(LeadingLeftSingularVectors(a, 5).status().IsInvalidArgument());
}

TEST(NormalizeColumnsOp, UnitNormsAndStoredValues) {
  DenseMatrix m = DenseMatrix::FromRows({{3, 0}, {4, 0}});
  std::vector<double> norms;
  NormalizeColumns(&m, &norms);
  EXPECT_DOUBLE_EQ(norms[0], 5.0);
  EXPECT_DOUBLE_EQ(norms[1], 0.0);  // zero column untouched
  EXPECT_DOUBLE_EQ(m(0, 0), 0.6);
  EXPECT_DOUBLE_EQ(m(1, 0), 0.8);
  EXPECT_DOUBLE_EQ(m(0, 1), 0.0);
}

TEST(SolveRightPinvOp, SolvesWellConditionedSystem) {
  Rng rng(48);
  DenseMatrix x_true = DenseMatrix::RandomNormal(5, 3, &rng);
  DenseMatrix basis = DenseMatrix::RandomNormal(3, 3, &rng);
  DenseMatrix a = Gram(basis);  // SPD, invertible w.h.p.
  Result<DenseMatrix> b = MatMul(x_true, a);
  ASSERT_OK(b.status());
  Result<DenseMatrix> solved = SolveRightPinv(*b, a);
  ASSERT_OK(solved.status());
  EXPECT_LT(solved->MaxAbsDiff(x_true), 1e-7);
}

TEST(RelativeErrorOp, ZeroForIdenticalMatrices) {
  Rng rng(49);
  DenseMatrix a = DenseMatrix::RandomNormal(4, 4, &rng);
  Result<double> err = RelativeError(a, a);
  ASSERT_OK(err.status());
  EXPECT_DOUBLE_EQ(*err, 0.0);
  DenseMatrix b(3, 3);
  EXPECT_TRUE(RelativeError(a, b).status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// The shared dense helpers run row-major, but each sum keeps the order of
// the plain column-by-column loops below, so their outputs are bit-identical
// for finite inputs — including exact zeros, which Gram skips.
// ---------------------------------------------------------------------------

void PlainNormalizeColumns(DenseMatrix* m, std::vector<double>* norms) {
  norms->assign(static_cast<size_t>(m->cols()), 0.0);
  for (int64_t j = 0; j < m->cols(); ++j) {
    double s = 0.0;
    for (int64_t i = 0; i < m->rows(); ++i) s += (*m)(i, j) * (*m)(i, j);
    s = std::sqrt(s);
    (*norms)[static_cast<size_t>(j)] = s;
    if (s > 0.0) {
      for (int64_t i = 0; i < m->rows(); ++i) (*m)(i, j) /= s;
    }
  }
}

DenseMatrix PlainGram(const DenseMatrix& a) {
  DenseMatrix g(a.cols(), a.cols());
  for (int64_t r = 0; r < a.cols(); ++r) {
    for (int64_t s = 0; s < a.cols(); ++s) {
      double dot = 0.0;
      for (int64_t i = 0; i < a.rows(); ++i) dot += a(i, r) * a(i, s);
      g(r, s) = dot;
    }
  }
  return g;
}

double PlainKruskalNormSquared(const std::vector<double>& lambda,
                               const std::vector<const DenseMatrix*>& f) {
  const int64_t rank = static_cast<int64_t>(lambda.size());
  DenseMatrix gram(rank, rank);
  gram.Fill(1.0);
  for (const DenseMatrix* a : f) {
    DenseMatrix g = PlainGram(*a);
    for (int64_t r = 0; r < rank; ++r) {
      for (int64_t s = 0; s < rank; ++s) gram(r, s) *= g(r, s);
    }
  }
  double total = 0.0;
  for (int64_t r = 0; r < rank; ++r) {
    for (int64_t s = 0; s < rank; ++s) {
      total += lambda[static_cast<size_t>(r)] *
               lambda[static_cast<size_t>(s)] * gram(r, s);
    }
  }
  return total;
}

double PlainInnerProductKruskal(const SparseTensor& x,
                                const std::vector<double>& lambda,
                                const std::vector<const DenseMatrix*>& f) {
  double total = 0.0;
  for (int64_t e = 0; e < x.nnz(); ++e) {
    double per_entry = 0.0;
    for (size_t r = 0; r < lambda.size(); ++r) {
      double p = lambda[r];
      for (int m = 0; m < x.order(); ++m) {
        p *= (*f[static_cast<size_t>(m)])(x.index(e, m),
                                          static_cast<int64_t>(r));
      }
      per_entry += p;
    }
    total += x.value(e) * per_entry;
  }
  return total;
}

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

void ExpectBitIdentical(const DenseMatrix& a, const DenseMatrix& b) {
  ASSERT_TRUE(a.SameShape(b));
  for (size_t i = 0; i < a.data().size(); ++i) {
    ASSERT_EQ(Bits(a.data()[i]), Bits(b.data()[i])) << "entry " << i;
  }
}

/// A tall normal matrix with about a quarter of its entries exact zeros
/// (some of them -0.0) and one all-zero column.
DenseMatrix TallWithZeros(int64_t rows, int64_t cols, Rng* rng) {
  DenseMatrix a = DenseMatrix::RandomNormal(rows, cols, rng);
  for (double& v : a.data()) {
    const double u = rng->Uniform();
    if (u < 0.2) v = 0.0;
    if (u > 0.95) v = -0.0;
  }
  for (int64_t i = 0; i < rows; ++i) a(i, cols - 1) = 0.0;
  return a;
}

TEST(DenseHelpersBitIdentity, GramAndNormalizeColumnsMatchPlainLoops) {
  Rng rng(4301);
  for (int64_t cols : {1, 5, 16}) {
    DenseMatrix a = TallWithZeros(3000, cols, &rng);
    ExpectBitIdentical(Gram(a), PlainGram(a));

    DenseMatrix fast = a;
    DenseMatrix plain = a;
    std::vector<double> fast_norms;
    std::vector<double> plain_norms;
    NormalizeColumns(&fast, &fast_norms);
    PlainNormalizeColumns(&plain, &plain_norms);
    ExpectBitIdentical(fast, plain);
    ASSERT_EQ(fast_norms.size(), plain_norms.size());
    for (size_t j = 0; j < fast_norms.size(); ++j) {
      EXPECT_EQ(Bits(fast_norms[j]), Bits(plain_norms[j])) << "column " << j;
    }
    EXPECT_EQ(fast_norms.back(), 0.0);
  }
}

TEST(DenseHelpersBitIdentity, KruskalTermsMatchPlainLoops) {
  Rng rng(4302);
  const int64_t rank = 6;
  SparseTensor x = testing::RandomSparseTensor({900, 700, 50}, 4000, &rng);
  DenseMatrix a = TallWithZeros(900, rank, &rng);
  DenseMatrix b = TallWithZeros(700, rank, &rng);
  DenseMatrix c = TallWithZeros(50, rank, &rng);
  std::vector<double> lambda = {2.5, 1.0, 0.0, 0.75, 3.0, 1.25};
  const std::vector<const DenseMatrix*> factors = {&a, &b, &c};

  Result<double> norm_sq = KruskalNormSquared(lambda, factors);
  ASSERT_OK(norm_sq.status());
  EXPECT_EQ(Bits(*norm_sq), Bits(PlainKruskalNormSquared(lambda, factors)));
  Result<double> from_grams =
      KruskalNormSquaredFromGrams(lambda, {Gram(a), Gram(b), Gram(c)});
  ASSERT_OK(from_grams.status());
  EXPECT_EQ(Bits(*from_grams), Bits(*norm_sq));

  Result<double> inner = InnerProductKruskal(x, lambda, factors);
  ASSERT_OK(inner.status());
  EXPECT_EQ(Bits(*inner), Bits(PlainInnerProductKruskal(x, lambda, factors)));
}

}  // namespace
}  // namespace haten2
