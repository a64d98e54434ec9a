// Fault-tolerance tests: atomic iteration checkpoints (manifest round trip,
// corruption rejection, keep-last-K retention), kill-and-resume bit-identity
// for all four ALS drivers.

#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/missing_values.h"
#include "core/nonnegative_tucker.h"
#include "core/parafac.h"
#include "core/tucker.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace haten2 {
namespace {

namespace fs = std::filesystem;
using haten2::testing::RandomSparseTensor;

/// A per-test temp directory, wiped before use.
std::string FreshDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "/" + name;
  fs::remove_all(dir);
  return dir;
}

KruskalModel SmallKruskal() {
  Rng rng(7);
  KruskalModel m;
  m.lambda = {2.0, 0.5};
  m.factors.push_back(DenseMatrix::RandomUniform(4, 2, &rng));
  m.factors.push_back(DenseMatrix::RandomUniform(3, 2, &rng));
  m.fit_history = {0.25, 0.5};
  return m;
}

// ---------------------------------------------------------------------------
// Checkpoint layer unit tests
// ---------------------------------------------------------------------------

TEST(Checkpoint, WriteLoadRoundTripsManifestAndModel) {
  CheckpointOptions options;
  options.directory = FreshDir("ckpt_roundtrip");
  CheckpointWriter writer(options);

  KruskalModel model = SmallKruskal();
  CheckpointManifest manifest;
  manifest.method = "parafac";
  manifest.model_kind = "kruskal";
  manifest.fingerprint = 0xdeadbeefULL;
  manifest.iteration = 2;
  manifest.metric = 0.5;
  manifest.fit_history = model.fit_history;
  ASSERT_OK(writer.Write(manifest, &model, nullptr));

  Result<LoadedCheckpoint> loaded =
      LoadLatestCheckpoint(options.directory);
  ASSERT_OK(loaded.status());
  EXPECT_EQ(loaded->manifest.method, "parafac");
  EXPECT_EQ(loaded->manifest.model_kind, "kruskal");
  EXPECT_EQ(loaded->manifest.fingerprint, 0xdeadbeefULL);
  EXPECT_EQ(loaded->manifest.iteration, 2);
  EXPECT_DOUBLE_EQ(loaded->manifest.metric, 0.5);
  EXPECT_EQ(loaded->manifest.fit_history, model.fit_history);
  // %.17g text round trip is bit-exact.
  ASSERT_EQ(loaded->kruskal.factors.size(), 2u);
  for (size_t m = 0; m < 2; ++m) {
    EXPECT_DOUBLE_EQ(
        loaded->kruskal.factors[m].MaxAbsDiff(model.factors[m]), 0.0);
  }
  EXPECT_EQ(loaded->kruskal.lambda, model.lambda);
}

TEST(Checkpoint, MissingDirectoryAndEmptyDirectoryAreNotFound) {
  std::string dir = FreshDir("ckpt_missing");
  EXPECT_TRUE(LoadLatestCheckpoint(dir).status().IsNotFound());
  fs::create_directories(dir);
  EXPECT_TRUE(LoadLatestCheckpoint(dir).status().IsNotFound());
  Result<std::vector<std::string>> list = ListCheckpoints(dir);
  ASSERT_OK(list.status());
  EXPECT_TRUE(list->empty());
}

TEST(Checkpoint, TruncatedManifestIsRejectedWithClearStatus) {
  CheckpointOptions options;
  options.directory = FreshDir("ckpt_truncated");
  CheckpointWriter writer(options);
  KruskalModel model = SmallKruskal();
  CheckpointManifest manifest;
  manifest.method = "parafac";
  manifest.model_kind = "kruskal";
  manifest.iteration = 2;
  ASSERT_OK(writer.Write(manifest, &model, nullptr));

  // Tear off the manifest's trailing "end" marker, simulating a torn copy.
  std::string manifest_path =
      options.directory + "/" + CheckpointDirName(2) + "/MANIFEST";
  std::ifstream in(manifest_path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  ASSERT_NE(content.find("end\n"), std::string::npos);
  content.resize(content.find("end\n"));
  std::ofstream(manifest_path, std::ios::trunc) << content;

  Status status = ReadCheckpointManifest(options.directory + "/" +
                                         CheckpointDirName(2))
                      .status();
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_NE(status.ToString().find("truncated"), std::string::npos)
      << status.ToString();
}

TEST(Checkpoint, DiscoverySkipsTornTmpAndFallsBackToValidCheckpoint) {
  // The staleness regression (ISSUE 10): a crash mid-write used to leave
  // `iter_N.tmp` debris and end-marker-less manifests that discovery
  // happily picked as "newest", so resume loaded garbage newer than the
  // last good checkpoint. Discovery must skip both and fall back.
  CheckpointOptions options;
  options.directory = FreshDir("ckpt_torn_tmp");
  options.keep_last = 10;
  CheckpointWriter writer(options);
  KruskalModel model = SmallKruskal();
  CheckpointManifest manifest;
  manifest.method = "parafac";
  manifest.model_kind = "kruskal";
  manifest.iteration = 2;
  manifest.metric = 0.5;
  ASSERT_OK(writer.Write(manifest, &model, nullptr));

  // A newer checkpoint whose manifest lost its end marker (torn copy).
  manifest.iteration = 4;
  ASSERT_OK(writer.Write(manifest, &model, nullptr));
  std::string torn = options.directory + "/" + CheckpointDirName(4);
  std::ifstream in(torn + "/MANIFEST");
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  ASSERT_NE(content.find("end\n"), std::string::npos);
  content.resize(content.find("end\n"));
  std::ofstream(torn + "/MANIFEST", std::ios::trunc) << content;

  // Orphaned staging directory from a writer killed before the rename —
  // newer still, and shaped like a checkpoint inside.
  std::string orphan = options.directory + "/" + CheckpointDirName(6) + ".tmp";
  fs::create_directories(orphan);
  std::ofstream(orphan + "/MANIFEST") << "garbage";

  // Listing never surfaces staging directories.
  Result<std::vector<std::string>> list = ListCheckpoints(options.directory);
  ASSERT_OK(list.status());
  ASSERT_EQ(list->size(), 2u);
  for (const std::string& dir : *list) {
    EXPECT_EQ(dir.find(".tmp"), std::string::npos) << dir;
  }

  // Loading walks past the torn iter_4 to the committed iter_2.
  Result<LoadedCheckpoint> loaded = LoadLatestCheckpoint(options.directory);
  ASSERT_OK(loaded.status());
  EXPECT_EQ(loaded->manifest.iteration, 2);
  EXPECT_DOUBLE_EQ(loaded->kruskal.factors[0].MaxAbsDiff(model.factors[0]),
                   0.0);

  // When *every* candidate is broken, the newest candidate's error is
  // surfaced instead of a silent cold start.
  std::string good = options.directory + "/" + CheckpointDirName(2);
  std::ofstream(good + "/MANIFEST", std::ios::trunc) << "garbage";
  Result<LoadedCheckpoint> none = LoadLatestCheckpoint(options.directory);
  EXPECT_FALSE(none.ok());
  EXPECT_FALSE(none.status().IsNotFound()) << none.status().ToString();
}

TEST(Checkpoint, DiscoverySkipsCheckpointWithTornFactorFile) {
  // A newest checkpoint whose factor file lost its last row must not load
  // as a smaller factor: discovery falls back to the older checkpoint.
  CheckpointOptions options;
  options.directory = FreshDir("ckpt_torn_factor");
  options.keep_last = 10;
  CheckpointWriter writer(options);
  KruskalModel model = SmallKruskal();
  CheckpointManifest manifest;
  manifest.method = "parafac";
  manifest.model_kind = "kruskal";
  manifest.iteration = 1;
  ASSERT_OK(writer.Write(manifest, &model, nullptr));
  manifest.iteration = 2;
  ASSERT_OK(writer.Write(manifest, &model, nullptr));

  const std::string factor =
      options.directory + "/" + CheckpointDirName(2) + "/model.mode1.txt";
  std::ifstream in(factor);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  ASSERT_EQ(content.back(), '\n');
  content.pop_back();
  content.resize(content.rfind('\n') + 1);  // cut the last row
  std::ofstream(factor, std::ios::trunc) << content;

  Result<LoadedCheckpoint> loaded = LoadLatestCheckpoint(options.directory);
  ASSERT_OK(loaded.status());
  ASSERT_EQ(loaded->manifest.iteration, 1);
  ASSERT_EQ(loaded->kruskal.factors.size(), model.factors.size());
  for (size_t m = 0; m < model.factors.size(); ++m) {
    EXPECT_DOUBLE_EQ(loaded->kruskal.factors[m].MaxAbsDiff(model.factors[m]),
                     0.0);
  }
}

TEST(Checkpoint, ListingSkipsIterationNumbersBeyondInt) {
  const std::string dir = FreshDir("ckpt_huge_names");
  for (const char* name :
       {"iter_000001", "iter_4294967297", "iter_99999999999"}) {
    fs::create_directories(dir + "/" + name);
  }
  Result<std::vector<std::string>> list = ListCheckpoints(dir);
  ASSERT_OK(list.status());
  ASSERT_EQ(list->size(), 1u);
  EXPECT_EQ(fs::path((*list)[0]).filename().string(), "iter_000001");
}

TEST(Checkpoint, CorruptManifestsAreRejected) {
  std::string dir = FreshDir("ckpt_corrupt");
  std::string ckpt = dir + "/" + CheckpointDirName(1);
  fs::create_directories(ckpt);

  auto write_manifest = [&](const std::string& text) {
    std::ofstream(ckpt + "/MANIFEST", std::ios::trunc) << text;
  };

  // Wrong magic.
  write_manifest("not-a-checkpoint\nend\n");
  EXPECT_TRUE(ReadCheckpointManifest(ckpt).status().IsInvalidArgument());
  // Unknown field.
  write_manifest(
      "haten2-checkpoint-v1\nmethod parafac\nmodel kruskal\n"
      "iteration 1\nbogus_field 3\nend\n");
  EXPECT_TRUE(ReadCheckpointManifest(ckpt).status().IsInvalidArgument());
  // Garbage iteration counter.
  write_manifest(
      "haten2-checkpoint-v1\nmethod parafac\nmodel kruskal\n"
      "iteration banana\nend\n");
  EXPECT_TRUE(ReadCheckpointManifest(ckpt).status().IsInvalidArgument());
  // Unknown model kind.
  write_manifest(
      "haten2-checkpoint-v1\nmethod parafac\nmodel pencil\n"
      "iteration 1\nend\n");
  EXPECT_TRUE(ReadCheckpointManifest(ckpt).status().IsInvalidArgument());
  // Missing required fields.
  write_manifest("haten2-checkpoint-v1\nmodel kruskal\nend\n");
  EXPECT_TRUE(ReadCheckpointManifest(ckpt).status().IsInvalidArgument());
  // Missing manifest entirely.
  fs::remove(ckpt + "/MANIFEST");
  EXPECT_TRUE(ReadCheckpointManifest(ckpt).status().IsNotFound());
}

TEST(Checkpoint, KeepLastPrunesOldestCheckpoints) {
  CheckpointOptions options;
  options.directory = FreshDir("ckpt_retention");
  options.keep_last = 2;
  CheckpointWriter writer(options);
  KruskalModel model = SmallKruskal();
  for (int iter : {2, 4, 6, 8}) {
    CheckpointManifest manifest;
    manifest.method = "parafac";
    manifest.model_kind = "kruskal";
    manifest.iteration = iter;
    ASSERT_OK(writer.Write(manifest, &model, nullptr));
  }
  Result<std::vector<std::string>> list = ListCheckpoints(options.directory);
  ASSERT_OK(list.status());
  ASSERT_EQ(list->size(), 2u);
  EXPECT_NE((*list)[0].find(CheckpointDirName(6)), std::string::npos);
  EXPECT_NE((*list)[1].find(CheckpointDirName(8)), std::string::npos);
  // The newest checkpoint is the one a resume loads.
  Result<LoadedCheckpoint> loaded = LoadLatestCheckpoint(options.directory);
  ASSERT_OK(loaded.status());
  EXPECT_EQ(loaded->manifest.iteration, 8);
}

TEST(Checkpoint, ValidateForResumeNamesTheMismatch) {
  CheckpointManifest manifest;
  manifest.method = "parafac";
  manifest.model_kind = "kruskal";
  manifest.fingerprint = 42;

  EXPECT_OK(ValidateCheckpointForResume(manifest, "parafac", "kruskal", 42));
  Status wrong_kind =
      ValidateCheckpointForResume(manifest, "parafac", "tucker", 42);
  EXPECT_TRUE(wrong_kind.IsFailedPrecondition());
  Status wrong_method =
      ValidateCheckpointForResume(manifest, "tucker", "kruskal", 42);
  EXPECT_TRUE(wrong_method.IsFailedPrecondition());
  Status wrong_fingerprint =
      ValidateCheckpointForResume(manifest, "parafac", "kruskal", 43);
  EXPECT_TRUE(wrong_fingerprint.IsFailedPrecondition());
  EXPECT_NE(wrong_fingerprint.ToString().find("fingerprint"),
            std::string::npos);
}

TEST(Checkpoint, FingerprintSeparatesRunConfigurations) {
  Rng rng(11);
  SparseTensor x = RandomSparseTensor({6, 5, 4}, 40, &rng);
  SparseTensor y = RandomSparseTensor({6, 5, 5}, 40, &rng);
  uint64_t base =
      CheckpointFingerprint("parafac", Variant::kDri, 17, 1e-6, {3}, x);
  EXPECT_EQ(base,
            CheckpointFingerprint("parafac", Variant::kDri, 17, 1e-6, {3}, x));
  EXPECT_NE(base,
            CheckpointFingerprint("tucker", Variant::kDri, 17, 1e-6, {3}, x));
  EXPECT_NE(base,
            CheckpointFingerprint("parafac", Variant::kDrn, 17, 1e-6, {3}, x));
  EXPECT_NE(base,
            CheckpointFingerprint("parafac", Variant::kDri, 18, 1e-6, {3}, x));
  EXPECT_NE(base,
            CheckpointFingerprint("parafac", Variant::kDri, 17, 1e-7, {3}, x));
  EXPECT_NE(base,
            CheckpointFingerprint("parafac", Variant::kDri, 17, 1e-6, {4}, x));
  EXPECT_NE(base,
            CheckpointFingerprint("parafac", Variant::kDri, 17, 1e-6, {3}, y));
}

// ---------------------------------------------------------------------------
// Kill-and-resume bit-identity, one test per driver.
//
// Shape shared by all four: a straight run of N iterations is the reference;
// an "interrupted" run stops after fewer iterations having committed
// periodic checkpoints; a resumed run restores the newest checkpoint and
// runs to N. Factors, metric histories, and iteration numbering must be
// BIT-identical to the straight run — resume continues the sequence, it
// does not restart it.
// ---------------------------------------------------------------------------

TEST(CheckpointResume, ParafacResumeIsBitIdentical) {
  Rng rng(911);
  SparseTensor x = RandomSparseTensor({12, 10, 8}, 120, &rng);
  Engine engine(ClusterConfig::ForTesting());

  Haten2Options options;
  options.max_iterations = 8;
  options.tolerance = 0.0;
  Result<KruskalModel> full = Haten2ParafacAls(&engine, x, 3, options);
  ASSERT_OK(full.status());

  CheckpointOptions ckpt;
  ckpt.directory = FreshDir("resume_parafac");
  ckpt.every_n_iterations = 2;
  Haten2Options interrupted = options;
  interrupted.max_iterations = 5;  // killed mid-run after checkpoint 4
  interrupted.checkpoint = &ckpt;
  ASSERT_OK(Haten2ParafacAls(&engine, x, 3, interrupted).status());

  Result<LoadedCheckpoint> latest = LoadLatestCheckpoint(ckpt.directory);
  ASSERT_OK(latest.status());
  EXPECT_EQ(latest->manifest.iteration, 4);
  EXPECT_EQ(latest->manifest.fit_history.size(), 4u);

  DecompositionTrace resumed_trace;
  Haten2Options resume = options;
  resume.resume_from = &latest.value();
  resume.trace = &resumed_trace;
  Result<KruskalModel> resumed = Haten2ParafacAls(&engine, x, 3, resume);
  ASSERT_OK(resumed.status());

  EXPECT_DOUBLE_EQ(resumed->fit, full->fit);
  EXPECT_EQ(resumed->iterations, full->iterations);
  // The fit history continues from the manifest instead of duplicating the
  // checkpointed prefix: 8 entries total, identical to the straight run.
  EXPECT_EQ(resumed->fit_history, full->fit_history);
  for (size_t m = 0; m < 3; ++m) {
    EXPECT_DOUBLE_EQ(resumed->factors[m].MaxAbsDiff(full->factors[m]), 0.0);
  }
  // The resumed trace picks up the iteration numbering mid-run.
  ASSERT_EQ(resumed_trace.iterations.size(), 4u);
  EXPECT_EQ(resumed_trace.iterations.front().iteration, 5);
  EXPECT_EQ(resumed_trace.iterations.back().iteration, 8);
}

TEST(CheckpointResume, NonnegativeParafacResumeIsBitIdentical) {
  Rng rng(912);
  SparseTensor x = RandomSparseTensor({10, 9, 8}, 100, &rng);
  Engine engine(ClusterConfig::ForTesting());

  Haten2Options options;
  options.max_iterations = 6;
  options.tolerance = 0.0;
  options.nonnegative = true;
  Result<KruskalModel> full = Haten2ParafacAls(&engine, x, 2, options);
  ASSERT_OK(full.status());

  CheckpointOptions ckpt;
  ckpt.directory = FreshDir("resume_parafac_nn");
  ckpt.every_n_iterations = 3;
  Haten2Options interrupted = options;
  interrupted.max_iterations = 4;
  interrupted.checkpoint = &ckpt;
  ASSERT_OK(Haten2ParafacAls(&engine, x, 2, interrupted).status());

  Result<LoadedCheckpoint> latest = LoadLatestCheckpoint(ckpt.directory);
  ASSERT_OK(latest.status());
  EXPECT_EQ(latest->manifest.method, "parafac-nn");
  EXPECT_EQ(latest->manifest.iteration, 3);

  Haten2Options resume = options;
  resume.resume_from = &latest.value();
  Result<KruskalModel> resumed = Haten2ParafacAls(&engine, x, 2, resume);
  ASSERT_OK(resumed.status());
  EXPECT_DOUBLE_EQ(resumed->fit, full->fit);
  EXPECT_EQ(resumed->fit_history, full->fit_history);
  for (size_t m = 0; m < 3; ++m) {
    EXPECT_DOUBLE_EQ(resumed->factors[m].MaxAbsDiff(full->factors[m]), 0.0);
  }
}

TEST(CheckpointResume, TuckerResumeIsBitIdentical) {
  Rng rng(913);
  SparseTensor x = RandomSparseTensor({10, 9, 8}, 100, &rng);
  Engine engine(ClusterConfig::ForTesting());

  Haten2Options options;
  options.max_iterations = 6;
  options.tolerance = 0.0;
  Result<TuckerModel> full = Haten2TuckerAls(&engine, x, {3, 3, 3}, options);
  ASSERT_OK(full.status());

  CheckpointOptions ckpt;
  ckpt.directory = FreshDir("resume_tucker");
  ckpt.every_n_iterations = 2;
  Haten2Options interrupted = options;
  interrupted.max_iterations = 3;
  interrupted.checkpoint = &ckpt;
  ASSERT_OK(Haten2TuckerAls(&engine, x, {3, 3, 3}, interrupted).status());

  Result<LoadedCheckpoint> latest = LoadLatestCheckpoint(ckpt.directory);
  ASSERT_OK(latest.status());
  EXPECT_EQ(latest->manifest.model_kind, "tucker");
  EXPECT_EQ(latest->manifest.iteration, 2);
  EXPECT_EQ(latest->manifest.core_norm_history.size(), 2u);

  Haten2Options resume = options;
  resume.resume_from = &latest.value();
  Result<TuckerModel> resumed = Haten2TuckerAls(&engine, x, {3, 3, 3}, resume);
  ASSERT_OK(resumed.status());
  // Unlike the generic warm start (which defensively re-orthonormalizes and
  // is only close to 1e-9), the resume path restores factors verbatim, so
  // the trajectory is exactly bitwise.
  EXPECT_DOUBLE_EQ(resumed->fit, full->fit);
  EXPECT_EQ(resumed->core_norm_history, full->core_norm_history);
  for (size_t m = 0; m < 3; ++m) {
    EXPECT_DOUBLE_EQ(resumed->factors[m].MaxAbsDiff(full->factors[m]), 0.0);
  }
  EXPECT_DOUBLE_EQ(resumed->core.MaxAbsDiff(full->core), 0.0);
}

TEST(CheckpointResume, NonnegativeTuckerResumeIsBitIdentical) {
  Rng rng(914);
  SparseTensor x = RandomSparseTensor({9, 8, 7}, 90, &rng);
  Engine engine(ClusterConfig::ForTesting());

  Haten2Options options;
  options.max_iterations = 6;
  options.tolerance = 0.0;
  Result<TuckerModel> full =
      Haten2NonnegativeTuckerAls(&engine, x, {2, 2, 2}, options);
  ASSERT_OK(full.status());

  CheckpointOptions ckpt;
  ckpt.directory = FreshDir("resume_tucker_nn");
  ckpt.every_n_iterations = 2;
  Haten2Options interrupted = options;
  interrupted.max_iterations = 5;  // checkpoints land at iterations 2 and 4
  interrupted.checkpoint = &ckpt;
  ASSERT_OK(Haten2NonnegativeTuckerAls(&engine, x, {2, 2, 2}, interrupted)
                .status());

  Result<LoadedCheckpoint> latest = LoadLatestCheckpoint(ckpt.directory);
  ASSERT_OK(latest.status());
  EXPECT_EQ(latest->manifest.method, "tucker-nn");
  EXPECT_EQ(latest->manifest.iteration, 4);

  Haten2Options resume = options;
  resume.resume_from = &latest.value();
  Result<TuckerModel> resumed =
      Haten2NonnegativeTuckerAls(&engine, x, {2, 2, 2}, resume);
  ASSERT_OK(resumed.status());
  // The multiplicative updates rescale the core too; restoring it makes the
  // resumed trajectory exactly bitwise.
  EXPECT_DOUBLE_EQ(resumed->fit, full->fit);
  EXPECT_EQ(resumed->core_norm_history, full->core_norm_history);
  for (size_t m = 0; m < 3; ++m) {
    EXPECT_DOUBLE_EQ(resumed->factors[m].MaxAbsDiff(full->factors[m]), 0.0);
  }
  EXPECT_DOUBLE_EQ(resumed->core.MaxAbsDiff(full->core), 0.0);
}

TEST(CheckpointResume, MissingValuesResumeIsBitIdentical) {
  // Exact rank-2 tensor observed on a random half of the cells (the
  // missing-value driver's fixture shape).
  Rng rng(915);
  std::vector<double> lambda = {3.0, 1.5};
  DenseMatrix a = DenseMatrix::RandomUniform(8, 2, &rng);
  DenseMatrix b = DenseMatrix::RandomUniform(7, 2, &rng);
  DenseMatrix c = DenseMatrix::RandomUniform(6, 2, &rng);
  Result<DenseTensor> dense = ReconstructKruskal(lambda, {&a, &b, &c});
  ASSERT_OK(dense.status());
  SparseTensor full_tensor = dense->ToSparse();
  Result<SparseTensor> mask_r = SparseTensor::Create({8, 7, 6});
  Result<SparseTensor> data_r = SparseTensor::Create({8, 7, 6});
  ASSERT_OK(mask_r.status());
  ASSERT_OK(data_r.status());
  SparseTensor mask = std::move(mask_r).value();
  SparseTensor data = std::move(data_r).value();
  for (int64_t i = 0; i < 8; ++i) {
    for (int64_t j = 0; j < 7; ++j) {
      for (int64_t k = 0; k < 6; ++k) {
        if (!rng.Bernoulli(0.5)) continue;
        int64_t idx[3] = {i, j, k};
        mask.AppendUnchecked(idx, 1.0);
        double v = full_tensor.Get({i, j, k});
        if (v != 0.0) data.AppendUnchecked(idx, v);
      }
    }
  }
  mask.Canonicalize();
  data.Canonicalize();

  Engine engine(ClusterConfig::ForTesting());
  MissingValueOptions options;
  options.em_iterations = 6;
  options.em_tolerance = 0.0;
  options.base.seed = 9;
  Result<MissingValueModel> full =
      Haten2ParafacMissing(&engine, data, mask, 2, options);
  ASSERT_OK(full.status());

  CheckpointOptions ckpt;
  ckpt.directory = FreshDir("resume_missing");
  ckpt.every_n_iterations = 2;
  MissingValueOptions interrupted = options;
  interrupted.em_iterations = 3;
  interrupted.base.checkpoint = &ckpt;
  ASSERT_OK(
      Haten2ParafacMissing(&engine, data, mask, 2, interrupted).status());

  Result<LoadedCheckpoint> latest = LoadLatestCheckpoint(ckpt.directory);
  ASSERT_OK(latest.status());
  EXPECT_EQ(latest->manifest.method, "parafac-em");
  EXPECT_EQ(latest->manifest.iteration, 2);

  MissingValueOptions resume = options;
  resume.base.resume_from = &latest.value();
  Result<MissingValueModel> resumed =
      Haten2ParafacMissing(&engine, data, mask, 2, resume);
  ASSERT_OK(resumed.status());
  EXPECT_DOUBLE_EQ(resumed->observed_fit, full->observed_fit);
  EXPECT_EQ(resumed->observed_fit_history, full->observed_fit_history);
  EXPECT_EQ(resumed->em_iterations, full->em_iterations);
  for (size_t m = 0; m < 3; ++m) {
    EXPECT_DOUBLE_EQ(
        resumed->model.factors[m].MaxAbsDiff(full->model.factors[m]), 0.0);
  }
}

TEST(CheckpointResume, ResumeRefusesForeignCheckpoint) {
  Rng rng(916);
  SparseTensor x = RandomSparseTensor({8, 7, 6}, 60, &rng);
  Engine engine(ClusterConfig::ForTesting());

  CheckpointOptions ckpt;
  ckpt.directory = FreshDir("resume_foreign");
  ckpt.every_n_iterations = 2;
  Haten2Options options;
  options.max_iterations = 4;
  options.tolerance = 0.0;
  options.checkpoint = &ckpt;
  ASSERT_OK(Haten2ParafacAls(&engine, x, 2, options).status());
  Result<LoadedCheckpoint> latest = LoadLatestCheckpoint(ckpt.directory);
  ASSERT_OK(latest.status());

  // Same checkpoint, different seed → different run → refused.
  Haten2Options wrong_seed = options;
  wrong_seed.checkpoint = nullptr;
  wrong_seed.seed = options.seed + 1;
  wrong_seed.resume_from = &latest.value();
  EXPECT_TRUE(Haten2ParafacAls(&engine, x, 2, wrong_seed)
                  .status()
                  .IsFailedPrecondition());
  // A kruskal checkpoint cannot resume a Tucker run.
  Haten2Options wrong_method = options;
  wrong_method.checkpoint = nullptr;
  wrong_method.resume_from = &latest.value();
  EXPECT_TRUE(Haten2TuckerAls(&engine, x, {2, 2, 2}, wrong_method)
                  .status()
                  .IsFailedPrecondition());
}

// ---------------------------------------------------------------------------
// Kill-and-resume through the failure-injection hooks: a run that dies
// mid-flight from an injected crash (max_task_attempts=1 turns any injected
// task failure into a fatal kAborted job) resumes from its newest
// checkpoint and lands exactly on the uninterrupted trajectory.
// ---------------------------------------------------------------------------

TEST(CheckpointResume, InjectedKillThenResumeMatchesUninterruptedRun) {
  Rng rng(917);
  SparseTensor x = RandomSparseTensor({12, 10, 8}, 120, &rng);

  Haten2Options options;
  options.max_iterations = 8;
  options.tolerance = 0.0;

  // Reference: uninterrupted run on a healthy cluster.
  Engine healthy(ClusterConfig::ForTesting());
  Result<KruskalModel> full = Haten2ParafacAls(&healthy, x, 3, options);
  ASSERT_OK(full.status());

  // Victim: every injected task failure is fatal. The probability is tuned
  // (deterministic Mix64 injection, stable across platforms) so the run
  // survives past the first checkpoint and dies before completing.
  ClusterConfig flaky = ClusterConfig::ForTesting();
  flaky.task_failure_probability = 0.004;
  flaky.max_task_attempts = 1;
  Engine victim(flaky);
  CheckpointOptions ckpt;
  ckpt.directory = FreshDir("resume_injected_kill");
  ckpt.every_n_iterations = 1;
  Haten2Options doomed = options;
  doomed.checkpoint = &ckpt;
  Status death = Haten2ParafacAls(&victim, x, 3, doomed).status();
  ASSERT_TRUE(death.IsAborted()) << death.ToString();

  // The kill left committed checkpoints behind; resume on a healthy
  // cluster continues the exact trajectory. Completed iterations were
  // bit-identical despite the injection (a job either dies or its output
  // is invariant), so the resumed result equals the uninterrupted one.
  Result<LoadedCheckpoint> latest = LoadLatestCheckpoint(ckpt.directory);
  ASSERT_OK(latest.status());
  EXPECT_GE(latest->manifest.iteration, 1);
  EXPECT_LT(latest->manifest.iteration, 8);

  Engine recovered(ClusterConfig::ForTesting());
  Haten2Options resume = options;
  resume.resume_from = &latest.value();
  Result<KruskalModel> resumed = Haten2ParafacAls(&recovered, x, 3, resume);
  ASSERT_OK(resumed.status());
  EXPECT_DOUBLE_EQ(resumed->fit, full->fit);
  EXPECT_EQ(resumed->fit_history, full->fit_history);
  for (size_t m = 0; m < 3; ++m) {
    EXPECT_DOUBLE_EQ(resumed->factors[m].MaxAbsDiff(full->factors[m]), 0.0);
  }
}

}  // namespace
}  // namespace haten2
