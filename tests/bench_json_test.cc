// Validates the benchmark harnesses' "haten2-bench-v1" JSON export — the
// shape the fig8 machine-sweep cells flow through — against the
// independent JSON syntax checker, including the embedded stats-v5 pipeline
// objects.

#include "bench_json.h"

#include <gtest/gtest.h>

#include <string>

#include "json_checker.h"
#include "mapreduce/engine.h"
#include "test_util.h"

namespace haten2 {
namespace {

// A small real pipeline (one engine job) so the embedded
// PipelineStatsToJson objects carry genuine counters.
PipelineStats SmallPipeline() {
  Engine engine(ClusterConfig::ForTesting());
  auto result = engine.Run<int64_t, int64_t, int64_t, int64_t>(
      "bench_json", 256,
      [](int64_t i, ShuffleEmitter<int64_t, int64_t>* em) {
        em->Emit(i % 16, 1);
      },
      [](const int64_t& k, std::vector<int64_t>& vs,
         OutputEmitter<int64_t, int64_t>* out) {
        out->Emit(k, static_cast<int64_t>(vs.size()));
      });
  EXPECT_OK(result.status());
  return engine.PipelineSnapshot();
}

TEST(BenchJsonTest, LogValidatesAndCarriesV5PipelineFields) {
  bench::BenchJsonLog log("unit_test");
  bench::Measurement m;
  m.simulated_seconds = 12.5;
  m.pipeline = SmallPipeline();
  m.jobs = m.pipeline.NumJobs();
  log.Add("machines", "M=10", "HaTen2-DRI-Tucker", m);
  log.Add("machines", "M=40", "HaTen2-DRI-Tucker", m);

  std::string json = log.ToJson();
  EXPECT_TRUE(testing::JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"schema\":\"haten2-bench-v1\""), std::string::npos);
  // The embedded pipelines carry the stats-v5 plan aggregate.
  EXPECT_NE(json.find("\"critical_path_with_backoff_seconds\""),
            std::string::npos);
}

}  // namespace
}  // namespace haten2
