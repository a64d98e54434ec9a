// Tests for the workload generators: determinism, planted structure, the
// paper's preprocessing pipeline, and the discovery helpers.

#include <gtest/gtest.h>

#include <unordered_set>

#include "test_util.h"
#include "workload/knowledge_base.h"
#include "workload/network_logs.h"
#include "workload/random_tensor.h"

namespace haten2 {
namespace {

TEST(RandomTensorGen, RespectsSpecAndIsDeterministic) {
  RandomTensorSpec spec;
  spec.dims = {50, 40, 30};
  spec.nnz = 500;
  spec.seed = 9;
  Result<SparseTensor> a = GenerateRandomTensor(spec);
  Result<SparseTensor> b = GenerateRandomTensor(spec);
  ASSERT_OK(a.status());
  ASSERT_OK(b.status());
  EXPECT_TRUE(a->IdenticalTo(*b));
  EXPECT_EQ(a->dims(), spec.dims);
  // Collisions can only shrink the count, and only slightly at this density.
  EXPECT_LE(a->nnz(), 500);
  EXPECT_GT(a->nnz(), 480);
  EXPECT_OK(a->Validate());
  // Duplicate coordinate draws merge by summing, so a few entries can exceed
  // max_value; every entry is at least min_value and bounded by a small
  // multiple of max_value.
  for (int64_t e = 0; e < a->nnz(); ++e) {
    EXPECT_GE(a->value(e), spec.min_value);
    EXPECT_LE(a->value(e), 4 * spec.max_value);
  }

  spec.seed = 10;
  Result<SparseTensor> c = GenerateRandomTensor(spec);
  ASSERT_OK(c.status());
  EXPECT_FALSE(c->IdenticalTo(*a));
}

TEST(RandomTensorGen, DensityDriven) {
  Result<SparseTensor> t = GenerateRandomCubicTensor(30, 1e-3, 1);
  ASSERT_OK(t.status());
  EXPECT_EQ(t->dims(), (std::vector<int64_t>{30, 30, 30}));
  EXPECT_NEAR(static_cast<double>(t->nnz()), 27.0, 6.0);
  EXPECT_TRUE(GenerateRandomCubicTensor(0, 0.1, 1).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(GenerateRandomCubicTensor(10, 1.5, 1).status()
                  .IsInvalidArgument());
}

TEST(LowRankGen, PlantsBlocks) {
  LowRankTensorSpec spec;
  spec.dims = {40, 30, 20};
  spec.rank = 2;
  spec.block_size = 6;
  spec.nnz_per_component = 100;
  spec.noise_nnz = 50;
  Result<PlantedTensor> planted = GenerateLowRankTensor(spec);
  ASSERT_OK(planted.status());
  EXPECT_EQ(planted->memberships.size(), 2u);
  for (const auto& per_mode : planted->memberships) {
    ASSERT_EQ(per_mode.size(), 3u);
    for (size_t m = 0; m < 3; ++m) {
      EXPECT_EQ(per_mode[m].size(), 6u);
      for (int64_t i : per_mode[m]) {
        EXPECT_GE(i, 0);
        EXPECT_LT(i, spec.dims[m]);
      }
    }
  }
  // Structure entries live inside the planted blocks.
  int64_t inside = 0;
  for (int64_t e = 0; e < planted->tensor.nnz(); ++e) {
    for (const auto& per_mode : planted->memberships) {
      bool in_block = true;
      for (size_t m = 0; m < 3; ++m) {
        const auto& block = per_mode[m];
        if (!std::binary_search(block.begin(), block.end(),
                                planted->tensor.index(e, static_cast<int>(m)))) {
          in_block = false;
          break;
        }
      }
      if (in_block) {
        ++inside;
        break;
      }
    }
  }
  EXPECT_GT(inside, planted->tensor.nnz() / 2);
}

TEST(LowRankGen, Validation) {
  LowRankTensorSpec spec;
  spec.dims = {4, 4, 4};
  spec.block_size = 8;  // larger than dims
  EXPECT_TRUE(GenerateLowRankTensor(spec).status().IsInvalidArgument());
  spec.block_size = 2;
  spec.rank = 0;
  EXPECT_TRUE(GenerateLowRankTensor(spec).status().IsInvalidArgument());
}

TEST(KnowledgeBaseGen, PlantsConcepts) {
  KnowledgeBaseSpec spec;
  spec.num_subjects = 200;
  spec.num_objects = 200;
  spec.num_relations = 30;
  spec.num_concepts = 3;
  spec.subjects_per_concept = 15;
  spec.objects_per_concept = 15;
  spec.relations_per_concept = 3;
  spec.facts_per_concept = 300;
  spec.noise_facts = 100;
  Result<KnowledgeBase> kb = GenerateKnowledgeBase(spec);
  ASSERT_OK(kb.status());
  EXPECT_EQ(kb->concepts.size(), 3u);
  EXPECT_EQ(kb->tensor.dims(), (std::vector<int64_t>{200, 200, 30}));
  EXPECT_GT(kb->tensor.nnz(), 300);
  EXPECT_OK(kb->tensor.Validate());

  // share_groups: concept 1 reuses concept 0's object group.
  EXPECT_EQ(kb->concepts[1].objects, kb->concepts[0].objects);
  EXPECT_NE(kb->concepts[2].objects, kb->concepts[0].objects);

  // Subject groups are disjoint.
  std::unordered_set<int64_t> seen;
  for (const auto& c : kb->concepts) {
    for (int64_t s : c.subjects) {
      EXPECT_TRUE(seen.insert(s).second) << "subject " << s << " reused";
    }
  }

  // Names reflect planted membership.
  int64_t planted_subject = kb->concepts[0].subjects[0];
  EXPECT_NE(kb->SubjectName(planted_subject).find("c0:"), std::string::npos);
}

TEST(KnowledgeBaseGen, Validation) {
  KnowledgeBaseSpec spec;
  spec.num_concepts = 0;
  EXPECT_TRUE(GenerateKnowledgeBase(spec).status().IsInvalidArgument());
  spec = KnowledgeBaseSpec();
  spec.num_subjects = 10;
  spec.subjects_per_concept = 20;
  EXPECT_TRUE(GenerateKnowledgeBase(spec).status().IsInvalidArgument());
}

// The background loop interleaves subject, object and relation draws from
// one Rng. Caching a single Zipf table made every draw rebuild a 10⁵-entry
// CDF, so this size ran for minutes; the TIMEOUT set on this binary in
// tests/CMakeLists.txt turns that regression into a failure.
TEST(KnowledgeBaseGen, BuildsLargeZipfBackgroundWithinTimeout) {
  KnowledgeBaseSpec spec;
  spec.num_subjects = 100000;
  spec.num_objects = 100000;
  spec.num_relations = 400;
  spec.noise_facts = 100000;
  Result<KnowledgeBase> kb = GenerateKnowledgeBase(spec);
  ASSERT_OK(kb.status());
  EXPECT_EQ(kb->tensor.dims(), (std::vector<int64_t>{100000, 100000, 400}));
  EXPECT_GT(kb->tensor.nnz(), spec.noise_facts / 2);
  EXPECT_OK(kb->tensor.Validate());
}

TEST(Preprocess, DropsScarceAndFrequentRelationsAndReweights) {
  Result<SparseTensor> t = SparseTensor::Create3(10, 10, 5);
  ASSERT_OK(t.status());
  // Relation 0: 6 facts (survives, most frequent among survivors).
  for (int i = 0; i < 6; ++i) ASSERT_OK(t->Append({i, i, 0}, 1.0));
  // Relation 1: 3 facts (survives).
  for (int i = 0; i < 3; ++i) ASSERT_OK(t->Append({i, i + 1, 1}, 1.0));
  // Relation 2: 1 fact (too scarce, dropped).
  ASSERT_OK(t->Append({0, 5, 2}, 1.0));
  // Relation 3: 20 facts (too frequent at fraction > 0.5, dropped).
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(t->Append({i, 0, 3}, 1.0));
    ASSERT_OK(t->Append({i, 1, 3}, 1.0));
  }
  t->Canonicalize();

  PreprocessOptions opts;
  opts.min_relation_count = 2;
  opts.max_relation_fraction = 0.5;
  Result<SparseTensor> cleaned = PreprocessKnowledgeTensor(*t, opts);
  ASSERT_OK(cleaned.status());
  // Only relations 0 and 1 remain.
  for (int64_t e = 0; e < cleaned->nnz(); ++e) {
    int64_t rel = cleaned->index(e, 2);
    EXPECT_TRUE(rel == 0 || rel == 1);
  }
  EXPECT_EQ(cleaned->nnz(), 9);
  // alpha = 6: relation 0 entries get 1 + log(6/6) = 1; relation 1 entries
  // get 1 + log(6/3) = 1 + log 2.
  EXPECT_DOUBLE_EQ(cleaned->Get({0, 0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(cleaned->Get({0, 1, 1}), 1.0 + std::log(2.0));
}

TEST(Preprocess, Validation) {
  Result<SparseTensor> t = SparseTensor::Create3(4, 4, 4);
  ASSERT_OK(t.status());
  ASSERT_OK(t->Append({0, 0, 0}, 1.0));
  t->Canonicalize();
  PreprocessOptions opts;
  opts.relation_mode = 7;
  EXPECT_TRUE(PreprocessKnowledgeTensor(*t, opts).status()
                  .IsInvalidArgument());
  opts = PreprocessOptions();
  opts.max_relation_fraction = 0.0;
  EXPECT_TRUE(PreprocessKnowledgeTensor(*t, opts).status()
                  .IsInvalidArgument());
  // All relations dropped -> FailedPrecondition.
  opts = PreprocessOptions();
  opts.min_relation_count = 100;
  EXPECT_TRUE(PreprocessKnowledgeTensor(*t, opts).status()
                  .IsFailedPrecondition());
}

TEST(DiscoveryHelpers, TopKAndRecovery) {
  DenseMatrix f = DenseMatrix::FromRows({
      {0.9, 0.0},
      {0.8, 0.1},
      {0.1, 0.7},
      {0.0, 0.9},
      {0.2, 0.1},
  });
  std::vector<std::vector<int64_t>> topk = TopKPerColumn(f, 2);
  ASSERT_EQ(topk.size(), 2u);
  EXPECT_EQ((std::unordered_set<int64_t>(topk[0].begin(), topk[0].end())),
            (std::unordered_set<int64_t>{0, 1}));
  EXPECT_EQ((std::unordered_set<int64_t>(topk[1].begin(), topk[1].end())),
            (std::unordered_set<int64_t>{2, 3}));

  std::vector<std::vector<int64_t>> planted = {{0, 1}, {2, 3}};
  EXPECT_DOUBLE_EQ(RecoveryScore(topk, planted), 1.0);
  std::vector<std::vector<int64_t>> wrong = {{4}, {4}};
  EXPECT_DOUBLE_EQ(RecoveryScore(wrong, planted), 0.0);
  EXPECT_DOUBLE_EQ(RecoveryScore(topk, {}), 1.0);
}

TEST(DiscoveryHelpers, TopCoreEntries) {
  Result<DenseTensor> core = DenseTensor::Create({2, 2, 2});
  ASSERT_OK(core.status());
  core->at({1, 0, 1}) = -5.0;
  core->at({0, 1, 0}) = 3.0;
  core->at({1, 1, 1}) = 1.0;
  std::vector<CoreEntry> top = TopCoreEntries(*core, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].index, (std::vector<int64_t>{1, 0, 1}));
  EXPECT_DOUBLE_EQ(top[0].value, -5.0);
  EXPECT_EQ(top[1].index, (std::vector<int64_t>{0, 1, 0}));
}

TEST(NetworkLogGen, PlantsServicesAndScan) {
  NetworkLogSpec spec;
  spec.num_sources = 100;
  spec.num_targets = 80;
  spec.num_ports = 50;
  spec.num_timestamps = 10;
  spec.num_services = 2;
  spec.clients_per_service = 10;
  spec.servers_per_service = 5;
  spec.flows_per_service = 500;
  spec.scan_ports = 20;
  spec.scan_window = 2;
  Result<NetworkLogs> logs = GenerateNetworkLogs(spec);
  ASSERT_OK(logs.status());
  EXPECT_EQ(logs->tensor.order(), 4);
  EXPECT_EQ(logs->services.size(), 2u);
  EXPECT_EQ(logs->scan_ports.size(), 20u);
  EXPECT_EQ(logs->scan_times.size(), 2u);
  EXPECT_OK(logs->tensor.Validate());
  // Every scan cell exists in the tensor.
  for (int64_t p : logs->scan_ports) {
    for (int64_t t : logs->scan_times) {
      EXPECT_GT(logs->tensor.Get(
                    {logs->scanner_source, logs->scan_target, p, t}),
                0.0);
    }
  }
  // 3-way variant.
  spec.include_time_mode = false;
  Result<NetworkLogs> flat = GenerateNetworkLogs(spec);
  ASSERT_OK(flat.status());
  EXPECT_EQ(flat->tensor.order(), 3);
}

TEST(NetworkLogGen, Validation) {
  NetworkLogSpec spec;
  spec.scan_ports = 10000;
  EXPECT_TRUE(GenerateNetworkLogs(spec).status().IsInvalidArgument());
  spec = NetworkLogSpec();
  spec.num_services = 0;
  EXPECT_TRUE(GenerateNetworkLogs(spec).status().IsInvalidArgument());
}

}  // namespace
}  // namespace haten2
