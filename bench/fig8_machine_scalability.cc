// Reproduces Figure 8 of the paper: machine scalability of HaTen2-DRI for
// Tucker and PARAFAC, reported as the "Scale Up" factor T_10 / T_M for
// M = 10..40 machines.
//
// The paper uses the NELL tensor (26M x 26M x 48M, 144M nonzeros); we use a
// 1000x scaled synthetic stand-in with the same shape (26K x 26K x 48K,
// 144K nonzeros). The job counters are measured once by executing the real
// jobs in-process; the per-machine-count times come from the CostModel,
// whose fixed per-job startup term (JVM loading, synchronization) produces
// the paper's flattening: near-linear scale-up at first, diminishing
// returns as machines are added.

#include <cinttypes>

#include "bench_json.h"
#include "bench_util.h"
#include "workload/random_tensor.h"

namespace haten2 {
namespace bench {
namespace {

constexpr uint64_t kShuffleBudget = 2ull << 30;

SparseTensor NellStandIn() {
  RandomTensorSpec spec;
  spec.dims = {26000, 26000, 48000};
  spec.nnz = 144000;
  spec.seed = 8;
  return GenerateRandomTensor(spec).value();
}

void Run(BenchJsonLog* log) {
  SparseTensor x = NellStandIn();
  std::printf("dataset: NELL stand-in, %s\n", x.DebugString().c_str());

  // Measure the job counters once per decomposition (one ALS iteration of
  // HaTen2-DRI, core 5x5x5 / rank 5 — the paper uses 10, scaled with data).
  Engine tucker_engine(PaperCluster(kShuffleBudget));
  {
    Haten2Options options;
    options.max_iterations = 1;
    HATEN2_CHECK_OK(
        Haten2TuckerAls(&tucker_engine, x, {5, 5, 5}, options).status());
  }
  Engine parafac_engine(PaperCluster(kShuffleBudget));
  {
    Haten2Options options;
    options.max_iterations = 1;
    HATEN2_CHECK_OK(
        Haten2ParafacAls(&parafac_engine, x, 5, options).status());
  }

  // The job counters are measured once; each per-M cell re-simulates the
  // same pipeline on an M-machine cluster.
  const PipelineStats tucker_pipeline = tucker_engine.PipelineSnapshot();
  const PipelineStats parafac_pipeline = parafac_engine.PipelineSnapshot();
  auto cell_of = [](const PipelineStats& pipeline, double simulated) {
    Measurement m;
    m.simulated_seconds = simulated;
    m.jobs = pipeline.NumJobs();
    m.max_intermediate_records = pipeline.MaxIntermediateRecords();
    m.max_intermediate_bytes = pipeline.MaxIntermediateBytes();
    m.total_intermediate_records = pipeline.TotalIntermediateRecords();
    m.pipeline = pipeline;
    return m;
  };

  const std::vector<int> machines = {10, 15, 20, 25, 30, 35, 40};
  double t10_tucker = 0.0;
  double t10_parafac = 0.0;
  PrintHeader("Figure 8: machine scalability, scale-up T10/TM "
              "(HaTen2-DRI)",
              {"machines", "Tucker T_M", "Tucker up", "PARAFAC T_M",
               "PARAFAC up"});
  // PaperCluster applies the 1000x record-scale correction (the stand-in is
  // 1000x smaller than the real NELL tensor); without it the fixed job
  // startup trivially dominates and the scale-up is flat 1.0x at every M.
  for (int m : machines) {
    ClusterConfig config = PaperCluster(kShuffleBudget);
    config.num_machines = m;
    CostModel model(config);
    double t_tucker = model.SimulatePipeline(tucker_pipeline);
    double t_parafac = model.SimulatePipeline(parafac_pipeline);
    if (m == 10) {
      t10_tucker = t_tucker;
      t10_parafac = t_parafac;
    }
    log->Add("machines", StrFormat("M=%d", m), "HaTen2-DRI-Tucker",
             cell_of(tucker_pipeline, t_tucker));
    log->Add("machines", StrFormat("M=%d", m), "HaTen2-DRI-PARAFAC",
             cell_of(parafac_pipeline, t_parafac));
    PrintRow({StrFormat("%d", m), StrFormat("%.1fs", t_tucker),
              StrFormat("%.2fx", t10_tucker / t_tucker),
              StrFormat("%.1fs", t_parafac),
              StrFormat("%.2fx", t10_parafac / t_parafac)});
  }
  std::printf("\nexpected shape: scale-up grows near-linearly for small M "
              "and flattens toward M=40 (fixed per-job overhead).\n");

  // Part 2: straggler ablation at M=40 — the same measured pipelines
  // re-simulated on a heterogeneous cluster (4 of the 40 machines at
  // quarter speed, e.g. a failing disk or a noisy neighbour), with and
  // without Hadoop-style speculative backups. Uniform + speculation-off is
  // the exact Part 1 M=40 simulation.
  PrintHeader("Figure 8, part 2: straggler ablation at M=40 (HaTen2-DRI)",
              {"cluster", "Tucker T_40", "PARAFAC T_40", "speculated", "won",
               "wasted"});
  struct Ablation {
    const char* label;
    const char* profiles;
    bool speculation;
  };
  const Ablation ablations[] = {
      {"uniform", "", false},
      {"hetero", "1.0x36,0.25x4", false},
      {"hetero+spec", "1.0x36,0.25x4", true},
  };
  for (const Ablation& a : ablations) {
    ClusterConfig config = PaperCluster(kShuffleBudget);
    config.num_machines = 40;
    config.machine_profiles = ParseMachineProfiles(a.profiles).value();
    config.speculative_execution = a.speculation;
    CostModel model(config);
    PipelineSim tucker = model.SimulatePipelineDetailed(tucker_pipeline);
    PipelineSim parafac = model.SimulatePipelineDetailed(parafac_pipeline);
    log->Add("stragglers", a.label, "HaTen2-DRI-Tucker",
             cell_of(tucker_pipeline, tucker.seconds));
    log->Add("stragglers", a.label, "HaTen2-DRI-PARAFAC",
             cell_of(parafac_pipeline, parafac.seconds));
    SpeculationStats spec = tucker.speculation;
    spec.Add(parafac.speculation);
    PrintRow({a.label, StrFormat("%.1fs", tucker.seconds),
              StrFormat("%.1fs", parafac.seconds),
              StrFormat("%" PRId64, spec.speculated),
              StrFormat("%" PRId64, spec.won),
              StrFormat("%.1fs", spec.wasted_seconds)});
  }
  std::printf("\nexpected shape: slow machines stretch the makespan; "
              "speculation claws most of it back by re-running stragglers "
              "on idle fast slots (backups never displace primary "
              "tasks, so it cannot be slower than hetero alone).\n");

  // Part 3: backend comparison — the same one-iteration PARAFAC executed
  // for real on the in-process backend and on the subprocess backend at
  // 1, 2, and 4 worker processes. This is measured wall time on the bench
  // host (not CostModel time): what forking gangs and moving every
  // shuffled run over Unix-domain sockets costs, with the socket traffic
  // itself exported as wire_bytes.
  PrintHeader("Figure 8, part 3: engine backends (PARAFAC, 1 ALS iter)",
              {"backend", "wall", "wire MB", "jobs"});
  struct BackendCell {
    const char* label;
    const char* backend;
    int num_workers;
  };
  const BackendCell backends[] = {
      {"inprocess", "inprocess", 0},
      {"subprocess-w1", "subprocess", 1},
      {"subprocess-w2", "subprocess", 2},
      {"subprocess-w4", "subprocess", 4},
  };
  for (const BackendCell& b : backends) {
    ClusterConfig config = PaperCluster(kShuffleBudget);
    config.backend = b.backend;
    config.num_workers = b.num_workers;
    Engine engine(config);
    Measurement m = MeasureMr(&engine, [&engine, &x]() {
      Haten2Options options;
      options.max_iterations = 1;
      return Haten2ParafacAls(&engine, x, 5, options).status();
    });
    for (const auto& w : engine.WorkerStatsSnapshot()) {
      m.wire_bytes += w.wire_bytes_sent + w.wire_bytes_received;
    }
    log->Add("backend", b.label, "HaTen2-DRI-PARAFAC", m);
    PrintRow({b.label, StrFormat("%.2fs", m.wall_seconds),
              StrFormat("%.1f", static_cast<double>(m.wire_bytes) / 1e6),
              StrFormat("%" PRId64, m.jobs)});
  }
  std::printf("\nexpected shape: the subprocess backend pays fork and "
              "socket overhead for the same dataflow (identical job "
              "counters); wire_bytes grows with every shuffled run crossing "
              "process boundaries twice.\n");
}

}  // namespace
}  // namespace bench
}  // namespace haten2

int main() {
  std::printf("HaTen2 reproduction - Figure 8: machine scalability\n");
  haten2::bench::BenchJsonLog log("fig8_machine_scalability");
  haten2::bench::Run(&log);
  log.Write();
  return 0;
}
