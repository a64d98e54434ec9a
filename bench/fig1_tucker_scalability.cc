// Reproduces Figure 1 of the paper: data scalability of Tucker
// decomposition for (a) nonzeros & dimensionality, (b) density, and (c)
// core tensor size, comparing the Tensor-Toolbox baseline with the four
// HaTen2 variants.
//
// Scaling substitutions (see DESIGN.md / EXPERIMENTS.md): dimensionality is
// swept 10²..3·10⁴ instead of 10³..10⁸, the core is 5³ instead of 10³, and
// the cluster's aggregate shuffle memory is 256 MiB (the paper's 40 x 32 GB
// scaled to the smaller data); the single-machine baseline gets 6 MiB.
// Times are simulated 40-machine makespans from the measured job counters.
//
// Expected shape (paper): Toolbox is competitive at the smallest scales and
// o.o.m.s first among survivors; Naive o.o.m.s immediately beyond the
// smallest scale; DNN o.o.m.s ~10x earlier than DRN/DRI; DRI completes
// everywhere and is the fastest HaTen2 variant.

#include <cinttypes>

#include "bench_json.h"
#include "bench_util.h"
#include "core/tucker.h"
#include "workload/random_tensor.h"

namespace haten2 {
namespace bench {
namespace {

constexpr uint64_t kShuffleBudget = 256ull << 20;  // 256 MiB
constexpr uint64_t kToolboxBudget = 6ull << 20;   // 6 MiB

struct MethodState {
  std::string name;
  bool skipped = false;  // after first o.o.m., larger scales are skipped
};

void RunSweep(const std::string& title, const std::string& param_name,
              const std::vector<std::string>& param_labels,
              const std::vector<SparseTensor>& tensors,
              const std::vector<int64_t>& cores, BenchJsonLog* log) {
  std::vector<MethodState> methods = {
      {"Toolbox"},      {"HaTen2-Naive"}, {"HaTen2-DNN"},
      {"HaTen2-DRN"},   {"HaTen2-DRI"},   {"HaTen2-DRI-sk"},
  };
  PrintHeader(title, {param_name, "Toolbox", "Naive", "DNN", "DRN", "DRI",
                      "DRI-sk"});
  for (size_t p = 0; p < tensors.size(); ++p) {
    const SparseTensor& x = tensors[p];
    const int64_t core = cores[p];
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
        result = MeasureBaseline([&] {
          return ToolboxTuckerAls(x, {core, core, core}, options).status();
        });
      } else {
        // The DRI-sk cells run sketched HOOI on the DRI dataflow (gaussian
        // projections, automatic width). Single-sweep cells measure the
        // sketched sweep itself, so polish is off there; the fit-vs-speed
        // ablation below runs the full schedule.
        const bool sketched = methods[m].name == "HaTen2-DRI-sk";
        Engine engine(PaperCluster(kShuffleBudget));
        Haten2Options options;
        options.max_iterations = 1;
        options.variant =
            sketched ? Variant::kDri : static_cast<Variant>(m - 1);
        options.tucker_sketch = sketched;
        options.exact_polish_sweeps = 0;
        result = MeasureMr(&engine, [&] {
          return Haten2TuckerAls(&engine, x, {core, core, core}, options)
              .status();
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
  std::vector<int64_t> cores;
  for (int64_t dim : dims) {
    RandomTensorSpec spec;
    spec.dims = {dim, dim, dim};
    spec.nnz = dim * 10;
    spec.seed = 1000 + static_cast<uint64_t>(dim);
    tensors.push_back(GenerateRandomTensor(spec).value());
    labels.push_back(StrFormat("I=%" PRId64, dim));
    cores.push_back(5);
  }
  RunSweep("Figure 1(a): Tucker, nonzeros & dimensionality (nnz = 10*I, "
           "core 5x5x5)",
           "dims", labels, tensors, cores, log);
}

void PartDensity(BenchJsonLog* log) {
  const int64_t dim = 600;
  std::vector<double> densities = {1e-6, 1e-5, 1e-4, 1e-3};
  std::vector<std::string> labels;
  std::vector<SparseTensor> tensors;
  std::vector<int64_t> cores;
  for (double d : densities) {
    tensors.push_back(GenerateRandomCubicTensor(dim, d, 77).value());
    labels.push_back(StrFormat("%.0e", d));
    cores.push_back(5);
  }
  RunSweep("Figure 1(b): Tucker, density (I=J=K=600, core 5x5x5)",
           "density", labels, tensors, cores, log);
}

void PartCore(BenchJsonLog* log) {
  RandomTensorSpec spec;
  spec.dims = {10000, 10000, 10000};
  spec.nnz = 50000;
  spec.seed = 3;
  SparseTensor x = GenerateRandomTensor(spec).value();
  // Capped at 16: the driver-side SVD of the ПJ x ПJ Gram matrix is
  // cubic in the block size, and 32^2-wide blocks dominate wall time
  // without changing the ordering (see EXPERIMENTS.md).
  std::vector<int64_t> cores = {4, 8, 16};
  std::vector<std::string> labels;
  std::vector<SparseTensor> tensors;
  for (int64_t c : cores) {
    labels.push_back(StrFormat("%" PRId64 "^3", c));
    tensors.push_back(x);
  }
  RunSweep("Figure 1(c): Tucker, core tensor size (I=10^4, nnz=5*10^4)",
           "core", labels, tensors, cores, log);
}

// Fit-vs-speed ablation at the largest completing core of Figure 1(c):
// multi-sweep exact DRI against sketched DRI (gaussian, 2 exact polish
// sweeps) from the same seed, reporting final fit next to simulated time.
// This is where sketching pays: at core 16^3 the exact CrossMerge shuffles
// 16^2-wide blocks while the sketched PairwiseMerge shuffles (16+4)-wide
// ones.
void PartFitVsSpeed(BenchJsonLog* log) {
  RandomTensorSpec spec;
  spec.dims = {10000, 10000, 10000};
  spec.nnz = 50000;
  spec.seed = 3;
  SparseTensor x = GenerateRandomTensor(spec).value();
  const int64_t core = 16;
  const int sweeps = 4;

  PrintHeader(StrFormat("Figure 1(d): Tucker fit vs speed, core %" PRId64
                        "^3, %d sweeps",
                        core, sweeps),
              {"method", "fit", "sim-time"});
  for (const bool sketched : {false, true}) {
    const char* name = sketched ? "HaTen2-DRI-sk" : "HaTen2-DRI";
    Engine engine(PaperCluster(kShuffleBudget));
    Haten2Options options;
    options.max_iterations = sweeps;
    options.tolerance = 0.0;
    options.variant = Variant::kDri;
    options.seed = 42;
    options.tucker_sketch = sketched;
    options.exact_polish_sweeps = 2;
    double fit = 0.0;
    Measurement result = MeasureMr(&engine, [&] {
      Result<TuckerModel> model =
          Haten2TuckerAls(&engine, x, {core, core, core}, options);
      if (model.ok()) fit = model->fit;
      return model.status();
    });
    log->Add("fit_vs_speed", StrFormat("core=%" PRId64 "^3", core), name,
             result);
    PrintRow({name, StrFormat("%.4f", fit), result.Cell()});
  }
}

}  // namespace
}  // namespace bench
}  // namespace haten2

int main() {
  std::printf("HaTen2 reproduction - Figure 1: Tucker data scalability\n");
  std::printf("(HaTen2 columns: simulated 40-machine times; Toolbox "
              "column: real single-machine wall time. o.o.m. = exceeded "
              "memory budget; skip(oom) = method already failed at a "
              "smaller scale)\n");
  haten2::bench::BenchJsonLog log("fig1_tucker_scalability");
  haten2::bench::PartDims(&log);
  haten2::bench::PartDensity(&log);
  haten2::bench::PartCore(&log);
  haten2::bench::PartFitVsSpeed(&log);
  log.Write();
  return 0;
}
