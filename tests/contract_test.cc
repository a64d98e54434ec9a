// Tests for the HaTen2 bottleneck operation (MultiModeContract): every
// variant, for both merge kinds, must agree with the direct in-memory
// reference computation — the content of Lemmas 1 and 2.

#include "core/contract.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/variant.h"
#include "linalg/linalg.h"
#include "mapreduce/engine.h"
#include "tensor/dense_tensor.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace haten2 {
namespace {

using ::haten2::testing::RandomSparseTensor;

constexpr double kTol = 1e-9;

// Reference Y ₍free₎ for the Tucker contraction via dense ops.
DenseMatrix ReferenceCross(const SparseTensor& x,
                           const std::vector<const DenseMatrix*>& factors,
                           int free_mode) {
  SparseTensor cur = x;
  for (int m = 0; m < x.order(); ++m) {
    if (m == free_mode) continue;
    Result<SparseTensor> r = TtmTransposed(cur, *factors[m], m);
    HATEN2_CHECK(r.ok()) << r.status().ToString();
    cur = std::move(r).value();
  }
  return DenseTensor::FromSparse(cur).Unfold(free_mode);
}

// Reference MTTKRP for the PARAFAC contraction.
DenseMatrix ReferencePairwise(const SparseTensor& x,
                              const std::vector<const DenseMatrix*>& factors,
                              int free_mode) {
  Result<DenseMatrix> r = Mttkrp(x, factors, free_mode);
  HATEN2_CHECK(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

struct Case {
  std::vector<int64_t> dims;
  std::vector<int64_t> cols;  // factor columns per mode (cross)
  int64_t nnz;
  int free_mode;
};

class ContractVariantTest
    : public ::testing::TestWithParam<std::tuple<Variant, int>> {};

Case CaseByIndex(int i) {
  switch (i) {
    case 0:
      return {{7, 5, 6}, {2, 3, 4}, 30, 0};
    case 1:
      return {{4, 9, 5}, {3, 2, 2}, 25, 1};
    case 2:
      return {{5, 6, 7}, {2, 2, 3}, 40, 2};
    case 3:
      return {{6, 8}, {3, 2}, 12, 0};  // order-2
    case 4:
      return {{4, 5, 3, 6}, {2, 2, 2, 2}, 35, 1};  // order-4
    case 5:
      return {{4, 3, 4, 3, 4}, {2, 2, 2, 2, 2}, 30, 2};  // order-5
    default:
      return {{3, 3, 3}, {2, 2, 2}, 9, 0};
  }
}

TEST_P(ContractVariantTest, CrossMatchesDirectComputation) {
  auto [variant, case_idx] = GetParam();
  Case c = CaseByIndex(case_idx);
  Rng rng(1234 + case_idx);
  SparseTensor x = RandomSparseTensor(c.dims, c.nnz, &rng);

  std::vector<DenseMatrix> owned;
  for (size_t m = 0; m < c.dims.size(); ++m) {
    owned.push_back(DenseMatrix::RandomNormal(c.dims[m], c.cols[m], &rng));
  }
  std::vector<const DenseMatrix*> factors;
  for (auto& f : owned) factors.push_back(&f);

  Engine engine(ClusterConfig::ForTesting());
  Result<SliceBlocks> y = MultiModeContract(&engine, x, factors, c.free_mode,
                                            MergeKind::kCross, variant);
  ASSERT_OK(y.status());
  DenseMatrix got = y->ToDenseMatrix();
  DenseMatrix want = ReferenceCross(x, factors, c.free_mode);
  ASSERT_TRUE(got.SameShape(want))
      << got.rows() << "x" << got.cols() << " vs " << want.rows() << "x"
      << want.cols();
  EXPECT_LT(got.MaxAbsDiff(want), kTol);
}

TEST_P(ContractVariantTest, PairwiseMatchesMttkrp) {
  auto [variant, case_idx] = GetParam();
  Case c = CaseByIndex(case_idx);
  Rng rng(987 + case_idx);
  SparseTensor x = RandomSparseTensor(c.dims, c.nnz, &rng);

  const int64_t rank = 3;
  std::vector<DenseMatrix> owned;
  for (size_t m = 0; m < c.dims.size(); ++m) {
    owned.push_back(DenseMatrix::RandomNormal(c.dims[m], rank, &rng));
  }
  std::vector<const DenseMatrix*> factors;
  for (auto& f : owned) factors.push_back(&f);

  Engine engine(ClusterConfig::ForTesting());
  Result<SliceBlocks> y = MultiModeContract(&engine, x, factors, c.free_mode,
                                            MergeKind::kPairwise, variant);
  ASSERT_OK(y.status());
  DenseMatrix got = y->ToDenseMatrix();
  DenseMatrix want = ReferencePairwise(x, factors, c.free_mode);
  ASSERT_TRUE(got.SameShape(want));
  EXPECT_LT(got.MaxAbsDiff(want), kTol);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariantsAllCases, ContractVariantTest,
    ::testing::Combine(::testing::Values(Variant::kNaive, Variant::kDnn,
                                         Variant::kDrn, Variant::kDri),
                       ::testing::Range(0, 6)),
    [](const ::testing::TestParamInfo<std::tuple<Variant, int>>& info) {
      return std::string(VariantName(std::get<0>(info.param)).substr(7)) +
             "_case" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Job-count accounting: the number of MapReduce jobs per evaluation must
// match Tables III and IV.
// ---------------------------------------------------------------------------

TEST(ContractJobCounts, TuckerMatchesTableIII) {
  Rng rng(5);
  const int64_t q = 3;
  const int64_t r = 4;
  SparseTensor x = RandomSparseTensor({6, 5, 4}, 20, &rng);
  DenseMatrix b = DenseMatrix::RandomNormal(5, q, &rng);
  DenseMatrix c = DenseMatrix::RandomNormal(4, r, &rng);
  std::vector<const DenseMatrix*> factors = {nullptr, &b, &c};

  struct Want {
    Variant v;
    int64_t jobs;
  };
  const Want wants[] = {
      {Variant::kNaive, q + r},
      {Variant::kDnn, q + r + 2},
      {Variant::kDrn, q + r + 1},
      {Variant::kDri, 2},
  };
  for (const Want& w : wants) {
    Engine engine(ClusterConfig::ForTesting());
    ASSERT_OK(MultiModeContract(&engine, x, factors, 0, MergeKind::kCross,
                                w.v)
                  .status());
    EXPECT_EQ(engine.pipeline().NumJobs(), w.jobs)
        << VariantName(w.v);
    PredictedCost predicted = PredictTuckerCost(w.v, x.nnz(), 6, 5, 4, q, r);
    EXPECT_EQ(predicted.total_jobs, w.jobs) << VariantName(w.v);
  }
}

TEST(ContractJobCounts, ParafacMatchesTableIV) {
  Rng rng(6);
  const int64_t rank = 3;
  SparseTensor x = RandomSparseTensor({6, 5, 4}, 20, &rng);
  DenseMatrix b = DenseMatrix::RandomNormal(5, rank, &rng);
  DenseMatrix c = DenseMatrix::RandomNormal(4, rank, &rng);
  std::vector<const DenseMatrix*> factors = {nullptr, &b, &c};

  struct Want {
    Variant v;
    int64_t jobs;
  };
  const Want wants[] = {
      {Variant::kNaive, 2 * rank},
      {Variant::kDnn, 4 * rank},
      {Variant::kDrn, 2 * rank + 1},
      {Variant::kDri, 2},
  };
  for (const Want& w : wants) {
    Engine engine(ClusterConfig::ForTesting());
    ASSERT_OK(MultiModeContract(&engine, x, factors, 0, MergeKind::kPairwise,
                                w.v)
                  .status());
    EXPECT_EQ(engine.pipeline().NumJobs(), w.jobs) << VariantName(w.v);
    PredictedCost predicted = PredictParafacCost(w.v, x.nnz(), 6, 5, 4, rank);
    EXPECT_EQ(predicted.total_jobs, w.jobs) << VariantName(w.v);
  }
}

// ---------------------------------------------------------------------------
// o.o.m. behaviour: a tiny shuffle budget must kill the naive variant (whose
// broadcast explodes) while DRI still finishes.
// ---------------------------------------------------------------------------

TEST(ContractMemory, NaiveExplodesDriSurvives) {
  Rng rng(7);
  SparseTensor x = RandomSparseTensor({40, 40, 40}, 100, &rng);
  DenseMatrix b = DenseMatrix::RandomNormal(40, 3, &rng);
  DenseMatrix c = DenseMatrix::RandomNormal(40, 3, &rng);
  std::vector<const DenseMatrix*> factors = {nullptr, &b, &c};

  ClusterConfig config = ClusterConfig::ForTesting();
  // Enough for nnz·(Q+R) Hadamard records but far below the naive
  // broadcast's 40·40·40-record explosion.
  config.total_shuffle_memory_bytes = 256 * 1024;

  {
    Engine engine(config);
    Result<SliceBlocks> y = MultiModeContract(
        &engine, x, factors, 0, MergeKind::kCross, Variant::kNaive);
    ASSERT_FALSE(y.ok());
    EXPECT_TRUE(y.status().IsResourceExhausted()) << y.status().ToString();
  }
  {
    Engine engine(config);
    Result<SliceBlocks> y = MultiModeContract(
        &engine, x, factors, 0, MergeKind::kCross, Variant::kDri);
    ASSERT_OK(y.status());
  }
}

// ---------------------------------------------------------------------------
// Input validation.
// ---------------------------------------------------------------------------

TEST(ContractValidation, RejectsBadArguments) {
  Rng rng(8);
  SparseTensor x = RandomSparseTensor({4, 4, 4}, 10, &rng);
  DenseMatrix f = DenseMatrix::RandomNormal(4, 2, &rng);
  std::vector<const DenseMatrix*> factors = {nullptr, &f, &f};
  Engine engine(ClusterConfig::ForTesting());

  EXPECT_TRUE(MultiModeContract(nullptr, x, factors, 0, MergeKind::kCross,
                                Variant::kDri)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(MultiModeContract(&engine, x, factors, 3, MergeKind::kCross,
                                Variant::kDri)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(MultiModeContract(&engine, x, {&f, &f}, 0, MergeKind::kCross,
                                Variant::kDri)
                  .status()
                  .IsInvalidArgument());
  // Null factor for a contracted mode.
  EXPECT_TRUE(MultiModeContract(&engine, x, {&f, nullptr, &f}, 0,
                                MergeKind::kCross, Variant::kDri)
                  .status()
                  .IsInvalidArgument());
  // Wrong row count.
  DenseMatrix bad = DenseMatrix::RandomNormal(5, 2, &rng);
  EXPECT_TRUE(MultiModeContract(&engine, x, {nullptr, &bad, &f}, 0,
                                MergeKind::kCross, Variant::kDri)
                  .status()
                  .IsInvalidArgument());
  // Pairwise rank mismatch.
  DenseMatrix r3 = DenseMatrix::RandomNormal(4, 3, &rng);
  EXPECT_TRUE(MultiModeContract(&engine, x, {nullptr, &f, &r3}, 0,
                                MergeKind::kPairwise, Variant::kDri)
                  .status()
                  .IsInvalidArgument());
  // Non-canonical tensor.
  Result<SparseTensor> nc = SparseTensor::Create3(4, 4, 4);
  ASSERT_OK(nc.status());
  ASSERT_OK(nc->Append({0, 0, 0}, 1.0));
  EXPECT_TRUE(MultiModeContract(&engine, *nc, factors, 0, MergeKind::kCross,
                                Variant::kDri)
                  .status()
                  .IsFailedPrecondition());
}

// ---------------------------------------------------------------------------
// The merge join's key: the contracted coordinates pack into one 64-bit
// key when their bit widths fit, and the join sorts the Coords when they do
// not. Both must give the in-core result, bit-identically under any task
// layout.
// ---------------------------------------------------------------------------

/// Contracts an `order`-way tensor with every mode of size `dim` under DRI
/// and DRN, cross and pairwise, at free modes 0 and order-1: each result
/// must match the in-core contraction within kTol and be bit-identical
/// under two map/reduce/thread layouts.
void ExpectMergeMatchesInCore(int order, int64_t dim) {
  Rng rng(5150 + static_cast<uint64_t>(order));
  SparseTensor x = RandomSparseTensor(
      std::vector<int64_t>(static_cast<size_t>(order), dim), 300, &rng);
  for (MergeKind kind : {MergeKind::kCross, MergeKind::kPairwise}) {
    std::vector<DenseMatrix> owned;
    for (int m = 0; m < order; ++m) {
      owned.push_back(DenseMatrix::RandomNormal(
          dim, kind == MergeKind::kCross ? 2 : 3, &rng));
    }
    std::vector<const DenseMatrix*> factors;
    for (const DenseMatrix& f : owned) factors.push_back(&f);
    for (int free_mode : {0, order - 1}) {
      ClusterConfig incore = ClusterConfig::ForTesting();
      incore.contraction = "incore";
      Engine incore_engine(incore);
      Result<SliceBlocks> want = MultiModeContract(
          &incore_engine, x, factors, free_mode, kind, Variant::kDri);
      ASSERT_OK(want.status());
      const DenseMatrix want_dense = want->ToDenseMatrix();
      for (Variant variant : {Variant::kDri, Variant::kDrn}) {
        SCOPED_TRACE(std::string(VariantName(variant)) + " free mode " +
                     std::to_string(free_mode));
        std::vector<SliceBlocks> got;
        for (int layout : {1, 7}) {
          ClusterConfig c = ClusterConfig::ForTesting();
          c.contraction = "dataflow";
          c.num_map_tasks = layout;
          c.num_reduce_tasks = layout == 1 ? 1 : 5;
          c.num_threads = layout == 1 ? 1 : 2;
          Engine engine(c);
          Result<SliceBlocks> y =
              MultiModeContract(&engine, x, factors, free_mode, kind, variant);
          ASSERT_OK(y.status());
          EXPECT_LT(y->ToDenseMatrix().MaxAbsDiff(want_dense), kTol);
          got.push_back(std::move(y).value());
        }
        EXPECT_EQ(got[0].slice_ids, got[1].slice_ids);
        ASSERT_EQ(got[0].values.data().size(), got[1].values.data().size());
        EXPECT_EQ(std::memcmp(got[0].values.data().data(),
                              got[1].values.data().data(),
                              got[0].values.data().size() * sizeof(double)),
                  0);
      }
    }
  }
}

TEST(MergeJoinKey, WideKeysFallBackToTheTupleSort) {
  // Five contracted 13-bit coordinates alone take 65 bits.
  ExpectMergeMatchesInCore(/*order=*/6, /*dim=*/8192);
}

TEST(MergeJoinKey, PackedKeyNearSixtyFourBits) {
  // Four contracted 16-bit coordinates fill the 64 bits exactly.
  ExpectMergeMatchesInCore(/*order=*/5, /*dim=*/65536);
}

}  // namespace
}  // namespace haten2
