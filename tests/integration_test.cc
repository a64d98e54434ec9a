// End-to-end integration tests spanning modules: file I/O -> preprocessing
// -> distributed decomposition -> discovery, agreement between the
// MapReduce path and the single-machine baseline on realistic workloads,
// and the figure-level behaviours (o.o.m. ordering, cost-model scale-up) at
// test scale.

#include <gtest/gtest.h>

#include <cstdio>

#include "baseline/toolbox.h"
#include "core/parafac.h"
#include "core/tucker.h"
#include "mapreduce/cost_model.h"
#include "tensor/tensor_io.h"
#include "test_util.h"
#include "workload/knowledge_base.h"
#include "workload/network_logs.h"
#include "workload/random_tensor.h"

namespace haten2 {
namespace {

TEST(Integration, FileToDecompositionPipeline) {
  // Write a tensor to disk, read it back, decompose: the full user flow.
  Rng rng(201);
  SparseTensor original =
      haten2::testing::RandomSparseTensor({30, 25, 20}, 300, &rng);
  std::string path = std::string(::testing::TempDir()) + "/integ.tns";
  ASSERT_OK(WriteTensorText(original, path));
  Result<SparseTensor> loaded = ReadTensorText(path);
  ASSERT_OK(loaded.status());
  ASSERT_TRUE(loaded->IdenticalTo(original));

  Engine engine(ClusterConfig::ForTesting());
  Haten2Options options;
  options.max_iterations = 5;
  Result<KruskalModel> from_file =
      Haten2ParafacAls(&engine, *loaded, 3, options);
  Result<KruskalModel> from_memory =
      Haten2ParafacAls(&engine, original, 3, options);
  ASSERT_OK(from_file.status());
  ASSERT_OK(from_memory.status());
  EXPECT_DOUBLE_EQ(from_file->fit, from_memory->fit);
  std::remove(path.c_str());
}

TEST(Integration, KnowledgeBaseDiscoveryPipeline) {
  // Generate -> preprocess -> PARAFAC -> recover planted concepts.
  KnowledgeBaseSpec spec;
  spec.num_subjects = 400;
  spec.num_objects = 400;
  spec.num_relations = 24;
  spec.num_concepts = 3;
  spec.subjects_per_concept = 12;
  spec.objects_per_concept = 12;
  spec.relations_per_concept = 3;
  spec.facts_per_concept = 900;
  spec.noise_facts = 400;
  spec.seed = 5;
  Result<KnowledgeBase> kb = GenerateKnowledgeBase(spec);
  ASSERT_OK(kb.status());
  Result<SparseTensor> cleaned =
      PreprocessKnowledgeTensor(kb->tensor, PreprocessOptions());
  ASSERT_OK(cleaned.status());

  Engine engine(ClusterConfig::ForTesting());
  Haten2Options options;
  options.max_iterations = 20;
  options.nonnegative = true;
  Result<KruskalModel> model =
      Haten2ParafacAls(&engine, *cleaned, spec.num_concepts, options);
  ASSERT_OK(model.status());

  std::vector<std::vector<int64_t>> planted;
  for (const auto& c : kb->concepts) planted.push_back(c.subjects);
  double recovery = RecoveryScore(
      TopKPerColumn(model->factors[0],
                    static_cast<int>(spec.subjects_per_concept)),
      planted);
  EXPECT_GT(recovery, 0.8);
}

TEST(Integration, MrAndBaselineAgreeOnKnowledgeTensor) {
  KnowledgeBaseSpec spec;
  spec.num_subjects = 150;
  spec.num_objects = 150;
  spec.num_relations = 12;
  spec.num_concepts = 2;
  spec.subjects_per_concept = 8;
  spec.objects_per_concept = 8;
  spec.relations_per_concept = 2;
  spec.facts_per_concept = 300;
  spec.noise_facts = 100;
  Result<KnowledgeBase> kb = GenerateKnowledgeBase(spec);
  ASSERT_OK(kb.status());

  Engine engine(ClusterConfig::ForTesting());
  Haten2Options mr_options;
  mr_options.max_iterations = 6;
  mr_options.tolerance = 0.0;
  mr_options.seed = 31;
  BaselineOptions tb_options;
  tb_options.max_iterations = 6;
  tb_options.tolerance = 0.0;
  tb_options.seed = 31;

  Result<KruskalModel> mr =
      Haten2ParafacAls(&engine, kb->tensor, 2, mr_options);
  Result<KruskalModel> tb = ToolboxParafacAls(kb->tensor, 2, tb_options);
  ASSERT_OK(mr.status());
  ASSERT_OK(tb.status());
  EXPECT_NEAR(mr->fit, tb->fit, 1e-8);

  Result<TuckerModel> mr_t =
      Haten2TuckerAls(&engine, kb->tensor, {2, 2, 2}, mr_options);
  Result<TuckerModel> tb_t =
      ToolboxTuckerAls(kb->tensor, {2, 2, 2}, tb_options);
  ASSERT_OK(mr_t.status());
  ASSERT_OK(tb_t.status());
  EXPECT_NEAR(mr_t->fit, tb_t->fit, 1e-8);
}

TEST(Integration, OomOrderingAcrossVariants) {
  // A budget staircase must kill methods in the paper's order:
  // Naive first, then DNN, with DRN/DRI surviving the smallest budget that
  // admits nnz(Q+R) records.
  Rng rng(202);
  SparseTensor x =
      haten2::testing::RandomSparseTensor({60, 60, 60}, 1500, &rng);
  Rng frng(203);
  DenseMatrix b = DenseMatrix::RandomUniform(60, 4, &frng);
  DenseMatrix c = DenseMatrix::RandomUniform(60, 4, &frng);
  std::vector<const DenseMatrix*> factors = {nullptr, &b, &c};

  auto runs_under = [&](Variant v, uint64_t budget) {
    ClusterConfig config = ClusterConfig::ForTesting();
    config.total_shuffle_memory_bytes = budget;
    Engine engine(config);
    return MultiModeContract(&engine, x, factors, 0, MergeKind::kCross, v)
        .status();
  };

  // DRI/DRN peak at the merge job: nnz*(Q+R) = 12K records x 72 B ≈ 860 KB.
  const uint64_t small = 4ull << 20;
  EXPECT_OK(runs_under(Variant::kDri, small));
  EXPECT_OK(runs_under(Variant::kDrn, small));
  // DNN peaks at its second Collapse: ~19.4K records x 56 B ≈ 1.06 MiB.
  // A budget between the two peaks separates the variants.
  const uint64_t tighter = 960ull << 10;  // 960 KiB
  EXPECT_OK(runs_under(Variant::kDri, tighter));
  EXPECT_TRUE(runs_under(Variant::kDnn, tighter).IsResourceExhausted());
  // Naive broadcasts 60*60*60 = 216K records per job and dies everywhere.
  EXPECT_TRUE(runs_under(Variant::kNaive, small).IsResourceExhausted());
}

TEST(Integration, CostModelScaleUpOnRealPipeline) {
  // Fig. 8 shape from an actual measured pipeline: strictly more machines
  // never simulate slower, and scale-up is sub-linear.
  Rng rng(204);
  SparseTensor x =
      haten2::testing::RandomSparseTensor({200, 200, 200}, 5000, &rng);
  ClusterConfig config = ClusterConfig::ForTesting();
  Engine engine(config);
  Haten2Options options;
  options.max_iterations = 1;
  ASSERT_OK(Haten2ParafacAls(&engine, x, 4, options).status());

  double prev = 1e300;
  double t10 = 0.0;
  double t40 = 0.0;
  for (int machines : {10, 20, 40}) {
    ClusterConfig sim;
    sim.num_machines = machines;
    double t = CostModel(sim).SimulatePipeline(engine.pipeline());
    EXPECT_LE(t, prev + 1e-9);
    if (machines == 10) t10 = t;
    if (machines == 40) t40 = t;
    prev = t;
  }
  EXPECT_GE(t10 / t40, 1.0);
  EXPECT_LT(t10 / t40, 4.0);  // sub-linear due to per-job startup
}

TEST(Integration, NetworkScanSurfacesInParafacFactors) {
  NetworkLogSpec spec;
  spec.num_sources = 120;
  spec.num_targets = 100;
  spec.num_ports = 60;
  spec.num_timestamps = 8;
  spec.num_services = 2;
  spec.clients_per_service = 12;
  spec.servers_per_service = 6;
  spec.flows_per_service = 800;
  spec.scan_ports = 30;
  spec.scan_window = 2;
  spec.scan_intensity = 4.0;
  spec.seed = 77;
  Result<NetworkLogs> logs = GenerateNetworkLogs(spec);
  ASSERT_OK(logs.status());

  Engine engine(ClusterConfig::ForTesting());
  Haten2Options options;
  options.max_iterations = 25;
  options.nonnegative = true;
  Result<KruskalModel> model =
      Haten2ParafacAls(&engine, logs->tensor, 4, options);
  ASSERT_OK(model.status());

  // Some component's top source must be the scanner and its top target the
  // scanned host.
  bool found = false;
  for (int64_t r = 0; r < 4; ++r) {
    int64_t top_src = 0;
    int64_t top_dst = 0;
    for (int64_t i = 1; i < model->factors[0].rows(); ++i) {
      if (model->factors[0](i, r) > model->factors[0](top_src, r)) {
        top_src = i;
      }
    }
    for (int64_t i = 1; i < model->factors[1].rows(); ++i) {
      if (model->factors[1](i, r) > model->factors[1](top_dst, r)) {
        top_dst = i;
      }
    }
    if (top_src == logs->scanner_source && top_dst == logs->scan_target) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Integration, FourWayEndToEnd) {
  // 4-way decomposition through the full MR path on the network tensor.
  NetworkLogSpec spec;
  spec.num_sources = 60;
  spec.num_targets = 50;
  spec.num_ports = 30;
  spec.num_timestamps = 6;
  spec.num_services = 2;
  spec.clients_per_service = 8;
  spec.servers_per_service = 4;
  spec.flows_per_service = 300;
  spec.scan_ports = 10;
  Result<NetworkLogs> logs = GenerateNetworkLogs(spec);
  ASSERT_OK(logs.status());

  Engine engine(ClusterConfig::ForTesting());
  Haten2Options options;
  options.max_iterations = 3;
  Result<TuckerModel> tucker =
      Haten2TuckerAls(&engine, logs->tensor, {2, 2, 2, 2}, options);
  ASSERT_OK(tucker.status());
  EXPECT_EQ(tucker->core.order(), 4);
  Result<KruskalModel> parafac =
      Haten2ParafacAls(&engine, logs->tensor, 3, options);
  ASSERT_OK(parafac.status());
  EXPECT_EQ(parafac->factors.size(), 4u);
}

}  // namespace
}  // namespace haten2
