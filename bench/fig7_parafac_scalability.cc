// Reproduces Figure 7 of the paper: data scalability of PARAFAC
// decomposition for (a) nonzeros & dimensionality, (b) density, and (c)
// rank, comparing the Tensor-Toolbox baseline with the four HaTen2
// variants. Same scaling substitutions as Figure 1 (see that harness and
// EXPERIMENTS.md).
//
// Expected shape (paper): Naive o.o.m.s beyond the smallest scale; DNN
// survives on memory (its per-job shuffle is only nnz + J) but pays 4R jobs
// of fixed overhead, making it the slowest survivor; DRI runs 2 jobs per
// MTTKRP and wins everywhere; the Toolbox wins only while the data fits in
// one machine.

#include <cinttypes>

#include "bench_json.h"
#include "bench_util.h"
#include "workload/random_tensor.h"

namespace haten2 {
namespace bench {
namespace {

constexpr uint64_t kShuffleBudget = 256ull << 20;  // 256 MiB
constexpr uint64_t kToolboxBudget = 6ull << 20;   // 6 MiB

struct MethodState {
  std::string name;
  bool skipped = false;
};

void RunSweep(const std::string& title, const std::string& param_name,
              const std::vector<std::string>& param_labels,
              const std::vector<SparseTensor>& tensors,
              const std::vector<int64_t>& ranks, BenchJsonLog* log) {
  std::vector<MethodState> methods = {
      {"Toolbox"},    {"HaTen2-Naive"}, {"HaTen2-DNN"},
      {"HaTen2-DRN"}, {"HaTen2-DRI"},
  };
  PrintHeader(title, {param_name, "Toolbox", "Naive", "DNN", "DRN", "DRI"});
  for (size_t p = 0; p < tensors.size(); ++p) {
    const SparseTensor& x = tensors[p];
    const int64_t rank = ranks[p];
    std::vector<std::string> cells = {param_labels[p]};
    for (size_t m = 0; m < methods.size(); ++m) {
      if (methods[m].skipped) {
        cells.push_back("skip(oom)");
        continue;
      }
      Measurement result;
      if (m == 0) {
        MemoryTracker tracker(kToolboxBudget);
        BaselineOptions options;
        options.max_iterations = 1;
        options.memory = &tracker;
        result = MeasureBaseline(
            [&] { return ToolboxParafacAls(x, rank, options).status(); });
      } else {
        Engine engine(PaperCluster(kShuffleBudget));
        Haten2Options options;
        options.max_iterations = 1;
        options.variant = static_cast<Variant>(m - 1);
        result = MeasureMr(&engine, [&] {
          return Haten2ParafacAls(&engine, x, rank, options).status();
        });
      }
      if (result.oom) methods[m].skipped = true;
      log->Add(param_name, param_labels[p], methods[m].name, result);
      cells.push_back(result.Cell());
    }
    PrintRow(cells);
  }
}

void PartDims(BenchJsonLog* log) {
  std::vector<int64_t> dims = {100, 1000, 10000, 30000};
  std::vector<std::string> labels;
  std::vector<SparseTensor> tensors;
  std::vector<int64_t> ranks;
  for (int64_t dim : dims) {
    RandomTensorSpec spec;
    spec.dims = {dim, dim, dim};
    spec.nnz = dim * 10;
    spec.seed = 2000 + static_cast<uint64_t>(dim);
    tensors.push_back(GenerateRandomTensor(spec).value());
    labels.push_back(StrFormat("I=%" PRId64, dim));
    ranks.push_back(5);
  }
  RunSweep("Figure 7(a): PARAFAC, nonzeros & dimensionality (nnz = 10*I, "
           "rank 5)",
           "dims", labels, tensors, ranks, log);
}

void PartDensity(BenchJsonLog* log) {
  const int64_t dim = 600;
  std::vector<double> densities = {1e-6, 1e-5, 1e-4, 1e-3};
  std::vector<std::string> labels;
  std::vector<SparseTensor> tensors;
  std::vector<int64_t> ranks;
  for (double d : densities) {
    tensors.push_back(GenerateRandomCubicTensor(dim, d, 78).value());
    labels.push_back(StrFormat("%.0e", d));
    ranks.push_back(5);
  }
  RunSweep("Figure 7(b): PARAFAC, density (I=J=K=600, rank 5)", "density",
           labels, tensors, ranks, log);
}

void PartRank(BenchJsonLog* log) {
  RandomTensorSpec spec;
  spec.dims = {10000, 10000, 10000};
  spec.nnz = 50000;
  spec.seed = 4;
  SparseTensor x = GenerateRandomTensor(spec).value();
  std::vector<int64_t> ranks = {4, 8, 16, 32};
  std::vector<std::string> labels;
  std::vector<SparseTensor> tensors;
  for (int64_t r : ranks) {
    labels.push_back(StrFormat("R=%" PRId64, r));
    tensors.push_back(x);
  }
  RunSweep("Figure 7(c): PARAFAC, rank (I=10^4, nnz=5*10^4)", "rank", labels,
           tensors, ranks, log);
}

// Figure 7(e) extension: IMHP dataflow vs the in-core contraction strategy
// on an in-memory-sized tensor. Same PARAFAC-DRI decomposition, same input;
// the only change is ClusterConfig::contraction. The wall column is real
// single-host seconds (not simulated), so the ratio is the honest speedup
// of skipping the shuffle when the layout fits in memory; the acceptance
// target is >= 2x.
void PartContractionAblation(BenchJsonLog* log) {
  RandomTensorSpec spec;
  spec.dims = {3000, 3000, 3000};
  spec.nnz = 100000;
  spec.seed = 2088;
  SparseTensor x = GenerateRandomTensor(spec).value();

  PrintHeader("Figure 7(e): contraction strategy ablation (I=3000, "
              "nnz=10^5, rank 10, PARAFAC-DRI, 1 iteration)",
              {"strategy", "wall", "speedup"});
  double dataflow_wall = 0.0;
  for (const char* strategy : {"dataflow", "incore"}) {
    ClusterConfig config = PaperCluster(kShuffleBudget);
    config.contraction = strategy;
    Engine engine(config);
    Haten2Options options;
    options.max_iterations = 1;
    options.variant = Variant::kDri;
    Measurement result = MeasureMr(&engine, [&] {
      return Haten2ParafacAls(&engine, x, 10, options).status();
    });
    log->Add("contraction", strategy, "HaTen2-DRI", result);
    std::vector<std::string> cells = {strategy,
                                      StrFormat("%.3fs", result.wall_seconds)};
    if (std::string(strategy) == "dataflow") {
      dataflow_wall = result.wall_seconds;
      cells.push_back("1.00x");
    } else {
      cells.push_back(result.wall_seconds > 0.0
                          ? StrFormat("%.2fx",
                                      dataflow_wall / result.wall_seconds)
                          : "inf");
    }
    PrintRow(cells);
  }
}

}  // namespace
}  // namespace bench
}  // namespace haten2

int main() {
  std::printf("HaTen2 reproduction - Figure 7: PARAFAC data scalability\n");
  std::printf("(HaTen2 columns: simulated 40-machine times; Toolbox "
              "column: real single-machine wall time. o.o.m. = exceeded "
              "memory budget; skip(oom) = method already failed at a "
              "smaller scale)\n");
  haten2::bench::BenchJsonLog log("fig7_parafac_scalability");
  haten2::bench::PartDims(&log);
  haten2::bench::PartDensity(&log);
  haten2::bench::PartRank(&log);
  haten2::bench::PartContractionAblation(&log);
  log.Write();
  return 0;
}
