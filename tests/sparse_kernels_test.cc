// Tests for the in-core contraction kernels (linalg/sparse_kernels.h):
// layout construction invariants, edge shapes (empty tensors, single
// nonzeros, duplicate coordinates, extreme dimensions), and seeded property
// tests pinning CsfMttkrp / CsfCrossContract against a naive per-entry
// reference — the same math the dataflow path evaluates.

#include "linalg/sparse_kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "tensor/tensor_ops.h"
#include "tensor/dense_matrix.h"
#include "tensor/sparse_tensor.h"
#include "test_util.h"
#include "util/random.h"

namespace haten2 {
namespace {

using ::haten2::testing::RandomSparseTensor;

constexpr double kTol = 1e-9;

// Naive per-entry MTTKRP reference: out[slice][r] += x * prod_s B_s(i_s, r).
std::vector<std::vector<double>> NaiveMttkrp(
    const SparseTensor& x, const CsfLayout& layout,
    const std::vector<const DenseMatrix*>& cfactors, int rank) {
  std::vector<std::vector<double>> rows(
      static_cast<size_t>(layout.num_slices()),
      std::vector<double>(static_cast<size_t>(rank), 0.0));
  for (int64_t e = 0; e < x.nnz(); ++e) {
    int64_t free_idx = x.index(e, layout.free_mode);
    int64_t si = -1;
    for (int64_t k = 0; k < layout.num_slices(); ++k) {
      if (layout.slice_ids[static_cast<size_t>(k)] == free_idx) si = k;
    }
    HATEN2_CHECK(si >= 0) << "nonzero slice missing from layout";
    for (int r = 0; r < rank; ++r) {
      double p = x.value(e);
      for (size_t s = 0; s < layout.cmodes.size(); ++s) {
        p *= (*cfactors[s])(x.index(e, layout.cmodes[s]), r);
      }
      rows[static_cast<size_t>(si)][static_cast<size_t>(r)] += p;
    }
  }
  return rows;
}

SparseTensor MakeTensor(const std::vector<int64_t>& dims,
                        const std::vector<std::vector<int64_t>>& coords,
                        const std::vector<double>& values,
                        bool canonicalize = true) {
  Result<SparseTensor> r = SparseTensor::Create(dims);
  HATEN2_CHECK(r.ok()) << r.status().ToString();
  SparseTensor t = std::move(r).value();
  for (size_t e = 0; e < coords.size(); ++e) {
    t.AppendUnchecked(coords[e].data(), values[e]);
  }
  if (canonicalize) t.Canonicalize();
  return t;
}

TEST(SparseKernelsLayout, EmptyTensorYieldsEmptyLayout) {
  SparseTensor x = MakeTensor({4, 5, 6}, {}, {});
  Result<CsfLayout> layout = BuildCsfLayout(x, 0);
  ASSERT_OK(layout.status());
  EXPECT_EQ(layout->num_slices(), 0);
  EXPECT_EQ(layout->num_fibers(), 0);
  EXPECT_EQ(layout->nnz(), 0);
  EXPECT_GT(layout->MemoryBytes(), 0u);  // the index arrays themselves

  // Kernels on an empty layout produce zero rows, not errors.
  DenseMatrix b(5, 3), c(6, 3);
  std::vector<const DenseMatrix*> cfactors = {&b, &c};
  DenseMatrix out;
  ASSERT_OK(CsfMttkrp(*layout, cfactors, 3, &out));
  EXPECT_EQ(out.rows(), 0);
  ASSERT_OK(CsfCrossContract(*layout, cfactors, {3, 3}, &out));
  EXPECT_EQ(out.rows(), 0);
}

TEST(SparseKernelsLayout, SingleNonzeroLayoutAndKernels) {
  SparseTensor x = MakeTensor({4, 5, 6}, {{2, 3, 4}}, {2.5});
  Result<CsfLayout> layout = BuildCsfLayout(x, 0);
  ASSERT_OK(layout.status());
  EXPECT_EQ(layout->num_slices(), 1);
  EXPECT_EQ(layout->num_fibers(), 1);
  EXPECT_EQ(layout->nnz(), 1);
  EXPECT_EQ(layout->slice_ids[0], 2);
  EXPECT_EQ(layout->entry_inner[0], 3);   // coord on cmodes[0] == mode 1
  EXPECT_EQ(layout->fiber_coords[0], 4);  // coord on cmodes[1] == mode 2

  Rng rng(7);
  DenseMatrix b = DenseMatrix::RandomNormal(5, 2, &rng);
  DenseMatrix c = DenseMatrix::RandomNormal(6, 2, &rng);
  std::vector<const DenseMatrix*> cfactors = {&b, &c};
  DenseMatrix out;
  ASSERT_OK(CsfMttkrp(*layout, cfactors, 2, &out));
  ASSERT_EQ(out.rows(), 1);
  for (int r = 0; r < 2; ++r) {
    // A single nonzero must be *bit*-identical to the scalar product chain
    // in ascending contracted-mode order (the accumulation-order contract).
    EXPECT_EQ(out(0, r), 2.5 * b(3, r) * c(4, r));
  }

  ASSERT_OK(CsfCrossContract(*layout, cfactors, {2, 2}, &out));
  ASSERT_EQ(out.rows(), 1);
  ASSERT_EQ(out.cols(), 4);
  // Stream 0 varies fastest: offset = q0 + 2*q1.
  for (int q1 = 0; q1 < 2; ++q1) {
    for (int q0 = 0; q0 < 2; ++q0) {
      EXPECT_EQ(out(0, q0 + 2 * q1), 2.5 * b(3, q0) * c(4, q1));
    }
  }
}

TEST(SparseKernelsLayout, DuplicateCoordinatesShareOneFiberAndSum) {
  // Three entries at the same coordinate, appended non-canonically: the
  // layout keeps them as adjacent entries of one fiber and the kernels sum.
  SparseTensor x = MakeTensor({3, 3, 3}, {{1, 2, 0}, {1, 2, 0}, {1, 2, 0}},
                              {1.0, 2.0, 4.0}, /*canonicalize=*/false);
  Result<CsfLayout> layout = BuildCsfLayout(x, 0);
  ASSERT_OK(layout.status());
  EXPECT_EQ(layout->num_slices(), 1);
  EXPECT_EQ(layout->num_fibers(), 1);
  EXPECT_EQ(layout->nnz(), 3);

  DenseMatrix b(3, 1), c(3, 1);
  for (int64_t i = 0; i < 3; ++i) {
    b(i, 0) = 1.0;
    c(i, 0) = 1.0;
  }
  std::vector<const DenseMatrix*> cfactors = {&b, &c};
  DenseMatrix out;
  ASSERT_OK(CsfMttkrp(*layout, cfactors, 1, &out));
  ASSERT_EQ(out.rows(), 1);
  EXPECT_DOUBLE_EQ(out(0, 0), 7.0);
}

TEST(SparseKernelsLayout, ExtremeFreeDimensionStaysCompressed) {
  // A sparse free mode of extent 10^12: the layout must scale with nnz,
  // never with the dimension (only nonempty slices are materialized).
  const int64_t huge = 1000LL * 1000 * 1000 * 1000;
  SparseTensor x = MakeTensor({huge, 3, 3},
                              {{0, 1, 1}, {huge / 2, 0, 2}, {huge - 1, 2, 0}},
                              {1.0, 2.0, 3.0});
  Result<CsfLayout> layout = BuildCsfLayout(x, 0);
  ASSERT_OK(layout.status());
  EXPECT_EQ(layout->num_slices(), 3);
  EXPECT_EQ(layout->slice_ids[0], 0);
  EXPECT_EQ(layout->slice_ids[1], huge / 2);
  EXPECT_EQ(layout->slice_ids[2], huge - 1);
  EXPECT_LT(layout->MemoryBytes(), 1u << 16);

  Rng rng(11);
  DenseMatrix b = DenseMatrix::RandomNormal(3, 2, &rng);
  DenseMatrix c = DenseMatrix::RandomNormal(3, 2, &rng);
  std::vector<const DenseMatrix*> cfactors = {&b, &c};
  DenseMatrix out;
  ASSERT_OK(CsfMttkrp(*layout, cfactors, 2, &out));
  ASSERT_EQ(out.rows(), 3);
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(out(0, r), 1.0 * b(1, r) * c(1, r));
    EXPECT_EQ(out(1, r), 2.0 * b(0, r) * c(2, r));
    EXPECT_EQ(out(2, r), 3.0 * b(2, r) * c(0, r));
  }
}

TEST(SparseKernelsLayout, RejectsBadArguments) {
  SparseTensor x = MakeTensor({3, 3, 3}, {{0, 0, 0}}, {1.0});
  EXPECT_TRUE(BuildCsfLayout(x, -1).status().IsInvalidArgument());
  EXPECT_TRUE(BuildCsfLayout(x, 3).status().IsInvalidArgument());

  Result<CsfLayout> layout = BuildCsfLayout(x, 0);
  ASSERT_OK(layout.status());
  DenseMatrix b(3, 2), c(3, 2);
  DenseMatrix out;
  // Wrong factor count.
  EXPECT_TRUE(CsfMttkrp(*layout, {&b}, 2, &out).IsInvalidArgument());
  // Null factor.
  EXPECT_TRUE(
      CsfMttkrp(*layout, {&b, nullptr}, 2, &out).IsInvalidArgument());
  // Rank mismatch.
  EXPECT_TRUE(CsfMttkrp(*layout, {&b, &c}, 3, &out).IsInvalidArgument());
  // Cross: block_dims disagreeing with factor columns.
  EXPECT_TRUE(CsfCrossContract(*layout, {&b, &c}, {2, 3}, &out)
                  .IsInvalidArgument());
  // Null output.
  EXPECT_TRUE(CsfMttkrp(*layout, {&b, &c}, 2, nullptr).IsInvalidArgument());
}

// Seeded property test: on random tensors of several orders and free modes,
// both kernels match the naive reference (and, for MTTKRP, the library's
// Mttkrp) to floating-point tolerance.
TEST(SparseKernelsProperty, MttkrpMatchesReferenceOnRandomTensors) {
  struct Shape {
    std::vector<int64_t> dims;
    int64_t nnz;
  };
  const Shape shapes[] = {
      {{7, 5, 6}, 40},
      {{4, 9, 5}, 25},
      {{6, 8}, 12},          // order-2: no fiber coords at all
      {{4, 5, 3, 6}, 35},    // order-4
      {{4, 3, 4, 3, 4}, 50}, // order-5
  };
  const int rank = 4;
  for (int trial = 0; trial < 3; ++trial) {
    for (const Shape& shape : shapes) {
      Rng rng(1000 + 17 * trial +
              static_cast<uint64_t>(shape.dims.size()));
      SparseTensor x = RandomSparseTensor(shape.dims, shape.nnz, &rng);
      for (int free_mode = 0;
           free_mode < static_cast<int>(shape.dims.size()); ++free_mode) {
        Result<CsfLayout> layout = BuildCsfLayout(x, free_mode);
        ASSERT_OK(layout.status());
        ASSERT_EQ(layout->nnz(), x.nnz());

        std::vector<DenseMatrix> owned;
        std::vector<const DenseMatrix*> cfactors;
        std::vector<const DenseMatrix*> all_factors(
            shape.dims.size(), nullptr);
        for (int m = 0; m < static_cast<int>(shape.dims.size()); ++m) {
          owned.push_back(
              DenseMatrix::RandomNormal(shape.dims[static_cast<size_t>(m)],
                                        rank, &rng));
        }
        for (int m = 0; m < static_cast<int>(shape.dims.size()); ++m) {
          all_factors[static_cast<size_t>(m)] = &owned[static_cast<size_t>(m)];
          if (m != free_mode) cfactors.push_back(&owned[static_cast<size_t>(m)]);
        }

        DenseMatrix out;
        ASSERT_OK(CsfMttkrp(*layout, cfactors, rank, &out));
        ASSERT_EQ(out.rows(), layout->num_slices());
        std::vector<std::vector<double>> want =
            NaiveMttkrp(x, *layout, cfactors, rank);
        for (int64_t si = 0; si < out.rows(); ++si) {
          for (int r = 0; r < rank; ++r) {
            EXPECT_NEAR(out(si, r),
                        want[static_cast<size_t>(si)][static_cast<size_t>(r)],
                        kTol)
                << "slice " << si << " rank " << r << " free " << free_mode;
          }
        }

        // Cross-check against the library MTTKRP (densified).
        Result<DenseMatrix> lib = Mttkrp(x, all_factors, free_mode);
        ASSERT_OK(lib.status());
        for (int64_t si = 0; si < out.rows(); ++si) {
          int64_t slice = layout->slice_ids[static_cast<size_t>(si)];
          for (int r = 0; r < rank; ++r) {
            EXPECT_NEAR(out(si, r), (*lib)(slice, r), kTol);
          }
        }
      }
    }
  }
}

TEST(SparseKernelsProperty, CrossContractMatchesNaiveReference) {
  Rng rng(4242);
  SparseTensor x = RandomSparseTensor({6, 5, 7}, 45, &rng);
  for (int free_mode = 0; free_mode < 3; ++free_mode) {
    Result<CsfLayout> layout = BuildCsfLayout(x, free_mode);
    ASSERT_OK(layout.status());

    std::vector<int64_t> block_dims;
    std::vector<DenseMatrix> owned;
    for (int m = 0, q = 2; m < 3; ++m) {
      if (m == free_mode) continue;
      owned.push_back(DenseMatrix::RandomNormal(x.dim(m), q, &rng));
      block_dims.push_back(q);
      ++q;  // distinct column counts exercise the odometer weights
    }
    std::vector<const DenseMatrix*> cfactors;
    for (auto& f : owned) cfactors.push_back(&f);

    DenseMatrix out;
    ASSERT_OK(CsfCrossContract(*layout, cfactors, block_dims, &out));
    ASSERT_EQ(out.rows(), layout->num_slices());

    // Naive reference with Kolda offsets (stream 0 fastest).
    std::vector<std::vector<double>> want(
        static_cast<size_t>(out.rows()),
        std::vector<double>(
            static_cast<size_t>(block_dims[0] * block_dims[1]), 0.0));
    for (int64_t e = 0; e < x.nnz(); ++e) {
      int64_t free_idx = x.index(e, free_mode);
      size_t si = 0;
      while (layout->slice_ids[si] != free_idx) ++si;
      for (int64_t q1 = 0; q1 < block_dims[1]; ++q1) {
        for (int64_t q0 = 0; q0 < block_dims[0]; ++q0) {
          double p = x.value(e) *
                     (*cfactors[0])(x.index(e, layout->cmodes[0]), q0) *
                     (*cfactors[1])(x.index(e, layout->cmodes[1]), q1);
          want[si][static_cast<size_t>(q0 + block_dims[0] * q1)] += p;
        }
      }
    }
    for (size_t si = 0; si < want.size(); ++si) {
      ASSERT_EQ(static_cast<size_t>(out.cols()), want[si].size());
      for (size_t j = 0; j < want[si].size(); ++j) {
        EXPECT_NEAR(out(static_cast<int64_t>(si), static_cast<int64_t>(j)),
                    want[si][j], kTol);
      }
    }
  }
}

TEST(SparseKernelsFingerprint, DistinguishesContentNotAddress) {
  SparseTensor a = MakeTensor({4, 4, 4}, {{0, 1, 2}, {3, 2, 1}}, {1.0, 2.0});
  SparseTensor b = MakeTensor({4, 4, 4}, {{0, 1, 2}, {3, 2, 1}}, {1.0, 2.0});
  // Same content, different objects: same fingerprint.
  EXPECT_EQ(TensorFingerprint(a), TensorFingerprint(b));

  // Different value bits: different fingerprint.
  SparseTensor c = MakeTensor({4, 4, 4}, {{0, 1, 2}, {3, 2, 1}}, {1.0, 2.5});
  EXPECT_NE(TensorFingerprint(a), TensorFingerprint(c));

  // Different coordinate, same nnz and shape: different fingerprint.
  SparseTensor d = MakeTensor({4, 4, 4}, {{0, 1, 2}, {3, 2, 2}}, {1.0, 2.0});
  EXPECT_NE(TensorFingerprint(a), TensorFingerprint(d));

  // Different shape, same entries: different fingerprint.
  SparseTensor e = MakeTensor({4, 4, 5}, {{0, 1, 2}, {3, 2, 1}}, {1.0, 2.0});
  EXPECT_NE(TensorFingerprint(a), TensorFingerprint(e));
}

}  // namespace
}  // namespace haten2
