#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <numeric>
#include <vector>

#include "bench/bench_util.h"
#include "core/contract.h"
#include "core/parafac.h"
#include "core/tucker.h"
#include "core/variant.h"
#include "linalg/linalg.h"
#include "linalg/sparse_kernels.h"
#include "mapreduce/cost_model.h"
#include "mapreduce/engine.h"
#include "open_loop.h"
#include "serving/model_registry.h"
#include "serving/query_engine.h"
#include "serving/refit_controller.h"
#include "serving/request_pipeline.h"
#include "serving/serving_stats.h"
#include "span_trace.h"
#include "tensor/delta_log.h"
#include "tensor/tensor_binary_io.h"
#include "tensor/tensor_io.h"
#include "util/json_writer.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "workload/random_tensor.h"

namespace haten2 {
namespace perfbench {

namespace {

constexpr const char* kModelName = "live";
constexpr int kMinReps = 3;
constexpr int kMaxReps = 50;
/// Queries due in the first half second only warm the serving path (first
/// touches of a fresh model, cold caches) and are left out of the latency
/// metrics.
constexpr double kWarmupSeconds = 0.5;
/// refit_serve's query mix: every 33rd query is a top-k, the rest are 85%
/// neighbors and 15% concepts (3% / 82% / 15% overall). Neighbors anchors
/// are uniform over all entities, and top-k asks for a page of 1-100
/// predictions from beams of 14 (wider than the registry's precomputed 10,
/// so each one rebuilds its candidate beams and scores about 22K cells).
/// Both are cache misses that compute: the median lands on a neighbors scan
/// and the p99 on a top-k, not on the wake-up latency of a cache hit or on
/// the host preemptions (about 1% of a busy thread's time on the reference
/// VM) that a p99 of cheap queries would measure. Top-k queries are spaced
/// evenly, so two never queue behind each other on the two workers.
constexpr int64_t kTopKEvery = 33;
constexpr double kNeighborsShare = 0.85;
constexpr int64_t kTopKBeam = 14;
constexpr int64_t kProbes = 30;
constexpr double kFitTolerance = 1e-9;
/// Engine threads for tucker_dataflow. Four threads on the 4-vCPU reference
/// VM made every map/reduce phase wait for whichever vCPU the host had
/// preempted (decomposition time spread 12-16% run to run); two spread ~3%.
constexpr int kTuckerEngineThreads = 2;

// ---------------------------------------------------------------------------
// Workload shapes.

struct ParafacShape {
  std::vector<int64_t> dims;
  int64_t planted_rank;
  int64_t block;
  int64_t planted_nnz;
  int64_t background_nnz;
  int64_t rank;
  int iterations;
};

ParafacShape ParafacIncore(bool tiny) {
  if (tiny) return {{2000, 2000, 40}, 4, 20, 2000, 2000, 8, 3};
  return {{100000, 100000, 400}, 16, 200, 500000, 500000, 16, 8};
}

struct TuckerShape {
  std::vector<int64_t> dims;
  int64_t nnz;
  std::vector<int64_t> core;
  int iterations;
};

TuckerShape TuckerDataflow(bool tiny) {
  if (tiny) return {{500, 500, 500}, 5000, {4, 4, 4}, 2};
  return {{20000, 20000, 20000}, 200000, {4, 4, 4}, 3};
}

struct RefitShape {
  std::vector<int64_t> dims;
  int64_t planted_rank;
  int64_t block;
  int64_t nnz_per_component;
  int64_t noise_nnz;
  int64_t rank;
  int iterations;
  int64_t appends_per_epoch;
  int64_t slices_per_mode;
  double qps;
};

RefitShape RefitServe(bool tiny) {
  if (tiny) return {{500, 500, 100}, 4, 10, 600, 200, 4, 3, 40, 4, 500.0};
  return {{20000, 20000, 2000}, 8, 40, 50000, 20000, 8, 3, 400, 4, 400.0};
}

/// Epochs per run: fixed by --seconds (0.25-0.4 s each at full size, so
/// the query p99 spans thousands of queries and no single stall decides it),
/// and at least 20 so the staleness tail is a percentile with 10 epochs
/// beyond.
int64_t EpochCount(bool tiny, double seconds) {
  if (tiny) return 12;
  return std::max<int64_t>(20, std::llround(4.0 * seconds));
}

// ---------------------------------------------------------------------------
// Input generation.

/// A knowledge-base-shaped tensor: planted low-rank blocks plus Zipf(1.1)
/// background facts, entries left in generation order (unsorted, with
/// duplicates) the way a fact dump arrives.
Result<SparseTensor> KbShapedTensor(const ParafacShape& s, uint64_t seed) {
  LowRankTensorSpec spec;
  spec.dims = s.dims;
  spec.rank = s.planted_rank;
  spec.block_size = s.block;
  spec.nnz_per_component = s.planted_nnz / s.planted_rank;
  spec.seed = seed;
  HATEN2_ASSIGN_OR_RETURN(PlantedTensor planted, GenerateLowRankTensor(spec));
  HATEN2_ASSIGN_OR_RETURN(SparseTensor out, SparseTensor::Create(s.dims));
  out.Reserve(planted.tensor.nnz() + s.background_nnz);
  for (int64_t e = 0; e < planted.tensor.nnz(); ++e) {
    out.AppendUnchecked(planted.tensor.IndexPtr(e), planted.tensor.value(e));
  }
  // One Rng per mode: Rng::Zipf caches the CDF of the last (n, s) pair
  // only, so drawing the three modes from one Rng (as
  // GenerateKnowledgeBase does) rebuilds a 10^5-entry CDF on every draw.
  std::vector<Rng> rngs;
  for (size_t m = 0; m < s.dims.size(); ++m) {
    rngs.emplace_back(seed * 0x9E3779B97F4A7C15ULL + m + 1);
  }
  std::vector<int64_t> idx(s.dims.size());
  for (int64_t i = 0; i < s.background_nnz; ++i) {
    for (size_t m = 0; m < s.dims.size(); ++m) {
      idx[m] = static_cast<int64_t>(
          rngs[m].Zipf(static_cast<uint64_t>(s.dims[m]), 1.1));
    }
    out.AppendUnchecked(idx.data(), 1.0);
  }
  return out;
}

/// Seeds and structure. A decomposition's fit on tucker_dataflow's
/// unstructured Random-family tensor is a property of the particular draw
/// and of the random start (the Tucker fit spread ±50% across draws, ±30%
/// across relabelings of one draw from one start), and refit_serve's sparse
/// planted blocks spread its fit by ±25% across draws. Those two workloads
/// therefore draw one base tensor and one starting point, and --seed
/// relabels both with the same per-mode permutations: every seed is the same
/// problem under other indices, which changes hashing, partitioning, slice
/// order and the deltas and queries drawn, but not the problem or its fit.
constexpr uint64_t kBaseSeed = 2015;

/// One seeded random permutation of [0, dims[m]) per mode.
using Permutation = std::vector<std::vector<int64_t>>;

Permutation Permutations(const std::vector<int64_t>& dims, uint64_t seed) {
  Rng rng(seed);
  Permutation perm(dims.size());
  for (size_t m = 0; m < dims.size(); ++m) {
    perm[m].resize(static_cast<size_t>(dims[m]));
    std::iota(perm[m].begin(), perm[m].end(), 0);
    rng.Shuffle(&perm[m]);
  }
  return perm;
}

/// `x` with index i of mode m renamed perm[m][i].
Result<SparseTensor> Relabel(const SparseTensor& x, const Permutation& perm) {
  HATEN2_ASSIGN_OR_RETURN(SparseTensor out, SparseTensor::Create(x.dims()));
  out.Reserve(x.nnz());
  std::vector<int64_t> idx(perm.size());
  for (int64_t e = 0; e < x.nnz(); ++e) {
    for (size_t m = 0; m < perm.size(); ++m) {
      idx[m] = perm[m][static_cast<size_t>(x.index(e, static_cast<int>(m)))];
    }
    out.AppendUnchecked(idx.data(), x.value(e));
  }
  out.Canonicalize();
  return out;
}

/// `a` with row i moved to row perm[i].
DenseMatrix RelabelRows(const DenseMatrix& a,
                        const std::vector<int64_t>& perm) {
  DenseMatrix out(a.rows(), a.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t c = 0; c < a.cols(); ++c) {
      out(perm[static_cast<size_t>(i)], c) = a(i, c);
    }
  }
  return out;
}

Result<SparseTensor> TuckerInput(const TuckerShape& s, uint64_t seed) {
  RandomTensorSpec spec;
  spec.dims = s.dims;
  spec.nnz = s.nnz;
  spec.seed = kBaseSeed;
  HATEN2_ASSIGN_OR_RETURN(SparseTensor base, GenerateRandomTensor(spec));
  return Relabel(base, Permutations(s.dims, seed));
}

/// Orthonormal starting factors, relabeled like the input.
Result<TuckerModel> TuckerStart(const TuckerShape& s, uint64_t seed) {
  Rng rng(kBaseSeed + 1);
  const Permutation perm = Permutations(s.dims, seed);
  TuckerModel start;
  for (size_t m = 0; m < s.dims.size(); ++m) {
    HATEN2_ASSIGN_OR_RETURN(
        QrResult qr, QrDecompose(DenseMatrix::RandomNormal(s.dims[m],
                                                           s.core[m], &rng)));
    start.factors.push_back(RelabelRows(qr.q, perm[m]));
  }
  return start;
}

Result<SparseTensor> RefitInput(const RefitShape& s, uint64_t seed) {
  LowRankTensorSpec spec;
  spec.dims = s.dims;
  spec.rank = s.planted_rank;
  spec.block_size = s.block;
  spec.nnz_per_component = s.nnz_per_component;
  spec.noise_nnz = s.noise_nnz;
  spec.seed = kBaseSeed;
  HATEN2_ASSIGN_OR_RETURN(PlantedTensor planted, GenerateLowRankTensor(spec));
  return Relabel(planted.tensor, Permutations(s.dims, seed));
}

/// Uniform random starting factors for the bootstrap fit, relabeled like
/// the input.
KruskalModel RefitStart(const RefitShape& s, uint64_t seed) {
  Rng rng(kBaseSeed + 1);
  const Permutation perm = Permutations(s.dims, seed);
  KruskalModel start;
  start.lambda.assign(static_cast<size_t>(s.rank), 1.0);
  for (size_t m = 0; m < s.dims.size(); ++m) {
    start.factors.push_back(RelabelRows(
        DenseMatrix::RandomUniform(s.dims[m], s.rank, &rng), perm[m]));
  }
  return start;
}

// ---------------------------------------------------------------------------
// Shared helpers.

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double FileMb(const std::string& path) {
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(bytes) / (1024.0 * 1024.0);
}

double Max(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

bool AllFinite(const std::vector<DenseMatrix>& factors) {
  for (const DenseMatrix& f : factors) {
    for (double v : f.data()) {
      if (!std::isfinite(v)) return false;
    }
  }
  return true;
}

bool NearlyEqual(double a, double b, double tol) {
  return std::fabs(a - b) <= tol * std::max(1.0, std::fabs(b));
}

/// 1 − ‖X − M‖/‖X‖ from the factors directly, without KruskalFit.
double IndependentKruskalFit(const SparseTensor& x, const KruskalModel& m) {
  const int64_t rank = m.rank();
  const int order = x.order();
  double xx = 0.0;
  double xm = 0.0;
  for (int64_t e = 0; e < x.nnz(); ++e) {
    const double v = x.value(e);
    xx += v * v;
    double cell = 0.0;
    for (int64_t r = 0; r < rank; ++r) {
      double p = m.lambda[static_cast<size_t>(r)];
      for (int n = 0; n < order; ++n) {
        p *= m.factors[static_cast<size_t>(n)](x.index(e, n), r);
      }
      cell += p;
    }
    xm += v * cell;
  }
  std::vector<double> h(static_cast<size_t>(rank * rank), 1.0);
  for (const DenseMatrix& a : m.factors) {
    for (int64_t r = 0; r < rank; ++r) {
      for (int64_t s = 0; s < rank; ++s) {
        double dot = 0.0;
        for (int64_t i = 0; i < a.rows(); ++i) dot += a(i, r) * a(i, s);
        h[static_cast<size_t>(r * rank + s)] *= dot;
      }
    }
  }
  double mm = 0.0;
  for (int64_t r = 0; r < rank; ++r) {
    for (int64_t s = 0; s < rank; ++s) {
      mm += m.lambda[static_cast<size_t>(r)] *
            m.lambda[static_cast<size_t>(s)] *
            h[static_cast<size_t>(r * rank + s)];
    }
  }
  return 1.0 - std::sqrt(std::max(0.0, xx - 2.0 * xm + mm)) / std::sqrt(xx);
}

/// ‖X ×₁ A₁ᵀ ×₂ A₂ᵀ ×₃ A₃ᵀ‖ accumulated over the nonzeros (3-way only).
double IndependentTuckerCoreNorm(const SparseTensor& x, const TuckerModel& m) {
  const DenseMatrix& a = m.factors[0];
  const DenseMatrix& b = m.factors[1];
  const DenseMatrix& c = m.factors[2];
  const int64_t p = a.cols();
  const int64_t q = b.cols();
  const int64_t r = c.cols();
  std::vector<double> g(static_cast<size_t>(p * q * r), 0.0);
  for (int64_t e = 0; e < x.nnz(); ++e) {
    const double v = x.value(e);
    const int64_t i = x.index(e, 0);
    const int64_t j = x.index(e, 1);
    const int64_t k = x.index(e, 2);
    for (int64_t z = 0; z < r; ++z) {
      for (int64_t y = 0; y < q; ++y) {
        const double vbc = v * b(j, y) * c(k, z);
        for (int64_t w = 0; w < p; ++w) {
          g[static_cast<size_t>(w + p * (y + q * z))] += vbc * a(i, w);
        }
      }
    }
  }
  double sum = 0.0;
  for (double v : g) sum += v * v;
  return std::sqrt(sum);
}

bool SameResult(const QueryResult& a, const QueryResult& b) {
  if (a.kind != b.kind || a.model != b.model ||
      a.model_version != b.model_version ||
      a.entries.size() != b.entries.size() || a.rows.size() != b.rows.size()) {
    return false;
  }
  for (size_t i = 0; i < a.entries.size(); ++i) {
    if (a.entries[i].index != b.entries[i].index ||
        a.entries[i].score != b.entries[i].score) {
      return false;
    }
  }
  for (size_t i = 0; i < a.rows.size(); ++i) {
    if (a.rows[i].row != b.rows[i].row || a.rows[i].score != b.rows[i].score) {
      return false;
    }
  }
  return true;
}

/// Query i of a seeded mix, as a pure function of (seed, i).
std::function<Query(int64_t)> QueryMaker(const ServedModel& model,
                                         uint64_t seed) {
  std::vector<int64_t> dims;
  int64_t entities = 0;
  for (const DenseMatrix& f : model.factors()) {
    dims.push_back(f.rows());
    entities += f.rows();
  }
  const int64_t rank = model.rank();
  return [=](int64_t i) {
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(i));
    Query q;
    q.model = kModelName;
    q.k = 10;
    const uint64_t order = dims.size();
    if (i % kTopKEvery == 0) {
      q.kind = QueryKind::kTopK;
      q.k = 1 + static_cast<int64_t>(rng.UniformInt(uint64_t{100}));
      q.beam = kTopKBeam;
    } else if (rng.Uniform() < kNeighborsShare) {
      q.kind = QueryKind::kNeighbors;
      int64_t entity = static_cast<int64_t>(
          rng.UniformInt(static_cast<uint64_t>(entities)));
      while (entity >= dims[static_cast<size_t>(q.mode)]) {
        entity -= dims[static_cast<size_t>(q.mode)];
        ++q.mode;
      }
      q.row = entity;
    } else {
      q.kind = QueryKind::kConcepts;
      q.component =
          static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(rank)));
      q.mode = static_cast<int>(rng.UniformInt(order));
    }
    return q;
  };
}

/// The serving front end both kinds of workload query: registry, query
/// engine, stats and a 2-worker request pipeline whose LRU is purged on
/// every install.
struct ServingStack {
  ServingStack() : engine(&registry), pipeline(&engine, &stats, Options()) {
    registry.SetInstallListener(
        [this](const std::string& name, int64_t version) {
          pipeline.PurgeModelExcept(name, version);
        });
  }
  static PipelineOptions Options() {
    PipelineOptions o;
    o.num_threads = 2;
    return o;
  }

  ModelRegistry registry;
  QueryEngine engine;
  ServingStats stats;
  RequestPipeline pipeline;
};

/// Answers `kProbes` fixed queries through the pipeline and directly
/// against the registry's current snapshot; every pair must match.
bool ProbesMatch(ServingStack* s, const std::function<Query(int64_t)>& make) {
  for (int64_t i = 0; i < kProbes; ++i) {
    const Query q = make(i);
    RequestPipeline::Response piped = s->pipeline.Submit(q).get();
    Result<QueryResult> direct = s->engine.Execute(q);
    if (!piped.status.ok() || piped.result == nullptr || !direct.ok() ||
        !SameResult(*piped.result, *direct)) {
      return false;
    }
  }
  return true;
}

/// Everything the benchmark reads from one pipeline log.
struct EngineSummary {
  double contract_s = 0.0;
  double layout_s = 0.0;
  double kernel_s = 0.0;
  double incore_node_s = 0.0;
  double sim_s = 0.0;
  int64_t jobs = 0;
  int64_t intermediate = 0;
  int64_t max_intermediate = 0;
  int64_t retries = 0;
  double map_s = 0.0;
  double combine_s = 0.0;
  double shuffle_s = 0.0;
  double reduce_s = 0.0;
  double scheduler_s = 0.0;
  double map_skew = 0.0;
};

EngineSummary Summarize(const PipelineStats& p, const ClusterConfig& config) {
  EngineSummary s;
  std::map<int64_t, const JobStats*> jobs;
  std::vector<double> task_records;
  for (const JobStats& j : p.jobs) {
    jobs[j.job_id] = &j;
    s.map_s += j.phases.map_seconds;
    s.combine_s += j.phases.combine_seconds;
    s.shuffle_s += j.phases.shuffle_seconds;
    s.reduce_s += j.phases.reduce_seconds;
    for (int64_t r : j.map_task_records) {
      task_records.push_back(static_cast<double>(r));
    }
  }
  for (const PlanStats& plan : p.plans) {
    double job_wall = 0.0;
    bool ran_jobs = false;
    for (const PlanNodeStats& n : plan.nodes) {
      if (!n.contraction_strategy.empty()) s.contract_s += n.seconds;
      if (n.contraction_strategy == "incore") s.incore_node_s += n.seconds;
      s.layout_s += n.layout_build_seconds;
      s.kernel_s += n.evaluate_seconds;
      for (int64_t id : n.job_ids) {
        auto it = jobs.find(id);
        if (it != jobs.end()) job_wall += it->second->wall_seconds;
        ran_jobs = true;
      }
    }
    // Scheduling overhead only means something for plans that ran jobs; an
    // in-core plan's wall time is its kernel.
    if (ran_jobs) s.scheduler_s += plan.wall_seconds - job_wall;
  }
  s.jobs = p.NumJobs();
  s.intermediate = p.TotalIntermediateRecords();
  s.max_intermediate = p.MaxIntermediateRecords();
  s.retries = p.TotalMapTaskRetries() + p.TotalNodeRetries();
  s.map_skew = Ratio(Max(task_records), Median(task_records));
  // Jobs are priced by the paper-cluster simulation; in-core nodes run no
  // job, so — like the single-machine baselines in bench/bench_util.h —
  // they are charged their measured seconds.
  s.sim_s = CostModel(config).SimulatePipeline(p) + s.incore_node_s;
  return s;
}

/// The pipeline entries added after `plans_before` plans / `jobs_before`
/// jobs were logged.
PipelineStats PipelineTail(const PipelineStats& all, size_t plans_before,
                           size_t jobs_before) {
  PipelineStats tail;
  tail.plans.assign(all.plans.begin() + static_cast<ptrdiff_t>(plans_before),
                    all.plans.end());
  tail.jobs.assign(all.jobs.begin() + static_cast<ptrdiff_t>(jobs_before),
                   all.jobs.end());
  return tail;
}

/// Child spans of a driver call, rebuilt from what the library exports:
/// iterations from the DecompositionTrace, then per iteration its plans
/// (Engine::PipelineSnapshot — the per-iteration pipelines drop in-core
/// plans), their nodes, and each node's jobs and job phases.
void AddDecompositionChildren(SpanRecorder* rec, int64_t call,
                              const std::vector<IterationStats>& iterations,
                              const PipelineStats& p) {
  if (!rec->enabled() || iterations.empty()) return;
  std::map<int64_t, const JobStats*> jobs;
  for (const JobStats& j : p.jobs) jobs[j.job_id] = &j;
  std::vector<ChildSpec> iter_specs;
  for (const IterationStats& it : iterations) {
    iter_specs.push_back(
        {StrFormat("iteration %d", it.iteration), "core", it.wall_seconds});
  }
  const std::vector<int64_t> iter_ids =
      AddSequentialChildren(rec, call, iter_specs);
  if (p.plans.size() % iterations.size() != 0) return;
  const size_t per_iter = p.plans.size() / iterations.size();
  for (size_t i = 0; i < iterations.size(); ++i) {
    std::vector<ChildSpec> plan_specs;
    for (size_t k = 0; k < per_iter; ++k) {
      const PlanStats& plan = p.plans[i * per_iter + k];
      plan_specs.push_back({plan.name, "mapreduce", plan.wall_seconds});
    }
    const std::vector<int64_t> plan_ids =
        AddSequentialChildren(rec, iter_ids[i], plan_specs);
    for (size_t k = 0; k < per_iter; ++k) {
      const PlanStats& plan = p.plans[i * per_iter + k];
      std::vector<ChildSpec> node_specs;
      for (const PlanNodeStats& n : plan.nodes) {
        const bool incore = n.contraction_strategy == "incore";
        node_specs.push_back({n.label, incore ? "core" : "mapreduce",
                              n.seconds});
      }
      const std::vector<int64_t> node_ids =
          AddSequentialChildren(rec, plan_ids[k], node_specs);
      for (size_t n = 0; n < plan.nodes.size(); ++n) {
        const PlanNodeStats& node = plan.nodes[n];
        if (node.contraction_strategy == "incore") {
          AddSequentialChildren(
              rec, node_ids[n],
              {{"layout", "core", node.layout_build_seconds},
               {"kernel", "linalg", node.evaluate_seconds}});
          continue;
        }
        std::vector<ChildSpec> job_specs;
        std::vector<const JobStats*> node_jobs;
        for (int64_t id : node.job_ids) {
          auto it = jobs.find(id);
          if (it == jobs.end()) continue;
          job_specs.push_back(
              {it->second->name, "mapreduce", it->second->wall_seconds});
          node_jobs.push_back(it->second);
        }
        const std::vector<int64_t> job_ids =
            AddSequentialChildren(rec, node_ids[n], job_specs);
        for (size_t j = 0; j < node_jobs.size(); ++j) {
          const PhaseTimes& ph = node_jobs[j]->phases;
          AddSequentialChildren(rec, job_ids[j],
                                {{"map", "mapreduce", ph.map_seconds},
                                 {"combine", "mapreduce", ph.combine_seconds},
                                 {"shuffle", "mapreduce", ph.shuffle_seconds},
                                 {"reduce", "mapreduce", ph.reduce_seconds}});
        }
      }
    }
  }
}

/// Computed MTTKRP work of one ALS iteration at `rank` (one evaluation per
/// mode), from the CSF layouts the in-core kernel walks: 2·R flops per
/// entry (inner SpMV) and per fiber (outer scale-and-add); bytes are the
/// compulsory traffic — the layout arrays, the contracted factors read
/// once and the output rows written once. Computed, not measured.
struct KernelWork {
  double flops = 0.0;
  double bytes = 0.0;
};

Result<KernelWork> MttkrpWorkPerIteration(const SparseTensor& x,
                                          int64_t rank) {
  KernelWork w;
  const double r = static_cast<double>(rank);
  for (int n = 0; n < x.order(); ++n) {
    HATEN2_ASSIGN_OR_RETURN(CsfLayout layout, BuildCsfLayout(x, n));
    w.flops += 2.0 * r *
               static_cast<double>(layout.nnz() + layout.num_fibers());
    w.bytes += static_cast<double>(layout.MemoryBytes());
    for (int m = 0; m < x.order(); ++m) {
      w.bytes += 8.0 * r * static_cast<double>(x.dim(m));
    }
  }
  return w;
}

/// Query-side metrics shared by every workload, over the queries due after
/// the warm-up.
void ServingMetrics(const std::vector<QueryOutcome>& outcomes,
                    ServingStack* s, double qps, bool full_size, RunLog* log,
                    MetricMap* e2e, MetricMap* layer) {
  std::vector<QueryOutcome> measured;
  for (const QueryOutcome& o : outcomes) {
    log->Op(o.ok);
    if (!full_size || o.due >= kWarmupSeconds) measured.push_back(o);
  }
  std::vector<double> latency_ms;
  for (const QueryOutcome& o : measured) {
    latency_ms.push_back(o.LatencySeconds() * 1e3);
  }
  (*e2e)["query_p50_ms"] = Median(latency_ms);
  (*e2e)["query_p99_ms"] = NearestRank(latency_ms, 0.99);
  if (full_size) {
    log->Check(measured.size() >= 1000,
               StrFormat("p99 needs >= 1000 queries, got %zu",
                         measured.size()));
  }
  const char* names[] = {"topk", "neighbors", "concepts"};
  for (int c = 0; c < kNumServingQueryClasses; ++c) {
    std::vector<double> miss;
    std::vector<double> hit;
    for (const QueryOutcome& o : measured) {
      if (static_cast<int>(o.kind) != c) continue;
      (o.cache_hit ? hit : miss).push_back(o.LatencySeconds() * 1e3);
    }
    std::fprintf(stderr,
                 "  %-9s miss n=%zu p50 %.3f p99 %.3f | hit n=%zu p50 %.3f "
                 "p99 %.3f ms\n",
                 names[c], miss.size(), Median(miss), NearestRank(miss, 0.99),
                 hit.size(), Median(hit), NearestRank(hit, 0.99));
  }
  const double late_p99 = NearestRank(LatenessMs(measured), 0.99);
  // An open-loop run is only valid while the generator keeps to its
  // schedule; lagging by more than 10 send periods means the offered load
  // was no longer the stated rate.
  log->Check(late_p99 <= 10.0 * 1e3 / qps,
             StrFormat("invalid run: open-loop generator fell behind its "
                       "schedule (p99 %.3f ms late)",
                       late_p99));
  (*layer)["serving.gen_late_p99_ms"] = late_p99;
  uint64_t errors = 0;
  for (int c = 0; c < kNumServingQueryClasses; ++c) {
    const auto cls = static_cast<ServingQueryClass>(c);
    (*layer)[std::string("serving.exec_p50_ms.") + names[c]] =
        s->stats.ClassSnapshot(cls).Quantile(0.5) * 1e3;
    errors += s->stats.ClassErrors(cls);
  }
  const auto cache = s->pipeline.CacheStats();
  (*layer)["serving.cache_hit_ratio"] = cache.HitRate();
  (*layer)["serving.cache_purges"] = static_cast<double>(cache.purges);
  (*layer)["serving.errors"] = static_cast<double>(errors);
}

/// Writes the trace file, checks the self-time arithmetic, and exports the
/// per-layer self-time table (seconds per unit of work).
void TraceMetrics(const SpanRecorder& rec, const std::string& trace_out,
                  double units, RunLog* log, MetricMap* layer) {
  const std::vector<Span> spans = rec.Snapshot();
  Status accounted = CheckSelfTimeAccounting(spans);
  log->Check(accounted.ok(),
             "self-time accounting: " + accounted.ToString());
  const std::map<std::string, double> self = SelfSecondsByLayer(spans);
  std::fprintf(stderr, "self time per unit of work (%g units):\n", units);
  for (const char* l :
       {"bench", "tensor", "core", "linalg", "mapreduce", "serving"}) {
    auto it = self.find(l);
    const double v = it == self.end() ? 0.0 : it->second / units;
    (*layer)[std::string("self_s.") + l] = v;
    std::fprintf(stderr, "  %-10s %12.6f s\n", l, v);
  }
  (*layer)["trace.spans"] = static_cast<double>(spans.size());
  if (!trace_out.empty()) {
    log->Check(WriteTextFile(trace_out, ChromeTraceJson(spans)).ok(),
               "writing " + trace_out);
  }
}

/// Per-layer metrics every workload reports: zero where the layer is idle
/// (metrics already set are kept).
void ZeroLayerMetrics(MetricMap* layer) {
  for (const char* name :
       {"tensor.merge_s", "core.densify_s", "core.fit_s",
        "core.layout_hit_ratio", "core.refit_s", "core.refit_iters",
        "core.patch_reuse_ratio", "core.full_invalidations", "linalg.solve_s",
        "linalg.mttkrp_gflops", "linalg.mttkrp_flop_per_byte",
        "mapreduce.jobs", "mapreduce.intermediate_records",
        "mapreduce.max_intermediate_records", "mapreduce.map_s",
        "mapreduce.combine_s", "mapreduce.shuffle_s", "mapreduce.reduce_s",
        "mapreduce.scheduler_s", "mapreduce.map_skew_ratio",
        "mapreduce.task_retries", "serving.epochs_behind_max",
        "serving.exec_p50_ms.topk", "serving.exec_p50_ms.neighbors",
        "serving.exec_p50_ms.concepts", "serving.cache_hit_ratio",
        "serving.cache_purges", "serving.errors",
        "serving.gen_late_p99_ms"}) {
    layer->emplace(name, 0.0);
  }
}

// ---------------------------------------------------------------------------
// Batch workloads: parafac_incore and tucker_dataflow.

struct Rep {
  double load_s = 0.0;
  double setup_s = 0.0;
  double decompose_s = 0.0;
  double install_s = 0.0;
  double staleness_s = 0.0;
  double fit = 0.0;
  EngineSummary engine;
  std::vector<IterationStats> iterations;
};

/// Times of one replayed steady-state iteration, by public call.
struct Replay {
  double densify_s = 0.0;
  double solve_s = 0.0;
  double fit_s = 0.0;
};

Result<Replay> ReplayParafacIteration(Engine* engine, const SparseTensor& x,
                                      KruskalModel m, ContractCache* cache,
                                      SpanRecorder* rec) {
  Replay out;
  ScopedSpan root(rec, "replay iteration", "bench");
  const int order = x.order();
  const int64_t rank = m.rank();
  std::vector<DenseMatrix> grams;
  for (const DenseMatrix& f : m.factors) grams.push_back(Gram(f));
  for (int n = 0; n < order; ++n) {
    const PipelineStats before = engine->PipelineSnapshot();
    const int64_t span = rec->Begin("MultiModeContract", "core", root.id(), -1);
    Result<SliceBlocks> y =
        MultiModeContract(engine, x, m.FactorPtrs(), n, MergeKind::kPairwise,
                          Variant::kDri, cache);
    rec->End(span);
    HATEN2_RETURN_IF_ERROR(y.status());
    std::vector<ChildSpec> kids;
    for (const PlanStats& plan :
         PipelineTail(engine->PipelineSnapshot(), before.plans.size(),
                      before.jobs.size())
             .plans) {
      for (const PlanNodeStats& node : plan.nodes) {
        kids.push_back({"layout", "core", node.layout_build_seconds});
        kids.push_back({"kernel", "linalg", node.evaluate_seconds});
      }
    }
    AddSequentialChildren(rec, span, kids);
    WallTimer t;
    DenseMatrix mttkrp;
    {
      ScopedSpan s(rec, "SliceBlocks::ToDenseMatrix", "core", root.id());
      mttkrp = y->ToDenseMatrix();
    }
    out.densify_s += t.ElapsedSeconds();
    t.Restart();
    {
      ScopedSpan s(rec, "Gram+SolveRightPinv+NormalizeColumns", "linalg",
                   root.id());
      DenseMatrix v(rank, rank);
      v.Fill(1.0);
      for (int k = 0; k < order; ++k) {
        if (k == n) continue;
        for (int64_t r = 0; r < rank; ++r) {
          for (int64_t c = 0; c < rank; ++c) {
            v(r, c) *= grams[static_cast<size_t>(k)](r, c);
          }
        }
      }
      HATEN2_ASSIGN_OR_RETURN(DenseMatrix updated, SolveRightPinv(mttkrp, v));
      NormalizeColumns(&updated, &m.lambda);
      grams[static_cast<size_t>(n)] = Gram(updated);
      m.factors[static_cast<size_t>(n)] = std::move(updated);
    }
    out.solve_s += t.ElapsedSeconds();
  }
  WallTimer t;
  {
    ScopedSpan s(rec, "KruskalFit", "core", root.id());
    HATEN2_ASSIGN_OR_RETURN(double fit, KruskalFit(x, m));
    (void)fit;
  }
  out.fit_s = t.ElapsedSeconds();
  return out;
}

Result<Replay> ReplayTuckerIteration(Engine* engine, const SparseTensor& x,
                                     TuckerModel m,
                                     const std::vector<int64_t>& core,
                                     ContractCache* cache, SpanRecorder* rec) {
  Replay out;
  ScopedSpan root(rec, "replay iteration", "bench");
  const int order = x.order();
  SliceBlocks last_y;
  for (int n = 0; n < order; ++n) {
    const PipelineStats before = engine->PipelineSnapshot();
    const int64_t span = rec->Begin("MultiModeContract", "core", root.id(), -1);
    Result<SliceBlocks> y =
        MultiModeContract(engine, x, m.FactorPtrs(), n, MergeKind::kCross,
                          Variant::kDri, cache);
    rec->End(span);
    HATEN2_RETURN_IF_ERROR(y.status());
    std::vector<ChildSpec> kids;
    for (const JobStats& j :
         PipelineTail(engine->PipelineSnapshot(), before.plans.size(),
                      before.jobs.size())
             .jobs) {
      kids.push_back({j.name, "mapreduce", j.wall_seconds});
    }
    AddSequentialChildren(rec, span, kids);
    WallTimer t;
    {
      ScopedSpan s(rec, "TuckerLeadingFactor", "linalg", root.id());
      HATEN2_ASSIGN_OR_RETURN(
          DenseMatrix f, TuckerLeadingFactor(*y, core[static_cast<size_t>(n)]));
      m.factors[static_cast<size_t>(n)] = std::move(f);
    }
    out.solve_s += t.ElapsedSeconds();
    if (n == order - 1) last_y = std::move(y).value();
  }
  {
    ScopedSpan s(rec, "TuckerCoreFromBlocks", "core", root.id());
    HATEN2_ASSIGN_OR_RETURN(
        m.core, TuckerCoreFromBlocks(last_y, m.factors.back(), core,
                                     order - 1));
  }
  WallTimer t;
  {
    ScopedSpan s(rec, "TuckerFit", "core", root.id());
    HATEN2_ASSIGN_OR_RETURN(double fit, TuckerFit(x, m));
    (void)fit;
  }
  out.fit_s = t.ElapsedSeconds();
  return out;
}

Status RunBatch(const RunOptions& opt, RunLog* log, MetricMap* metrics) {
  const bool tucker = opt.workload == "tucker_dataflow";
  const ParafacShape ps = ParafacIncore(opt.tiny);
  const TuckerShape ts = TuckerDataflow(opt.tiny);
  const int iterations = tucker ? ts.iterations : ps.iterations;
  SpanRecorder rec(opt.trace);

  ClusterConfig config;
  if (tucker) {
    // The paper's 40-machine cluster.
    config = bench::PaperCluster(/*shuffle_budget_bytes=*/0);
    config.num_threads = kTuckerEngineThreads;
  } else {
    config.num_threads = 2;  // haten2_cli default
    config.contraction = "incore";
  }
  HATEN2_RETURN_IF_ERROR(config.Validate());

  TuckerModel start;
  if (tucker) {
    HATEN2_ASSIGN_OR_RETURN(start, TuckerStart(ts, opt.seed));
  }
  ModelRegistry registry;
  std::vector<Rep> reps;
  std::unique_ptr<SparseTensor> x;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<ContractCache> cache;
  KruskalModel kmodel;
  TuckerModel tmodel;
  WallTimer budget;
  while (static_cast<int>(reps.size()) < kMinReps ||
         (static_cast<int>(reps.size()) < kMaxReps &&
          budget.ElapsedSeconds() + reps.back().staleness_s <= opt.seconds)) {
    const int64_t index = static_cast<int64_t>(reps.size());
    Rep rep;
    ScopedSpan rep_span(&rec, StrFormat("rep %lld", (long long)index),
                        "bench", -1, index);
    WallTimer total;
    // Set-up: load, then canonicalize (the readers canonicalize already;
    // the explicit step keeps the cost in set-up if that ever changes).
    Result<SparseTensor> loaded = [&] {
      ScopedSpan s(&rec, "ReadTensorAuto", "tensor", rep_span.id(), index);
      return ReadTensorAuto(opt.input);
    }();
    rep.load_s = total.ElapsedSeconds();
    if (!log->Op(loaded.ok())) return loaded.status();
    x.reset();
    x = std::make_unique<SparseTensor>(std::move(loaded).value());
    if (!x->canonical()) {
      ScopedSpan s(&rec, "Canonicalize", "tensor", rep_span.id(), index);
      x->Canonicalize();
    }
    rep.setup_s = total.ElapsedSeconds();

    cache = std::make_unique<ContractCache>();
    engine = std::make_unique<Engine>(config);
    DecompositionTrace trace;
    Haten2Options options;
    options.max_iterations = iterations;
    options.tolerance = 0.0;
    options.trace = &trace;
    options.contract_cache = cache.get();
    if (tucker) options.initial_tucker = &start;
    const int64_t call =
        rec.Begin(tucker ? "Haten2TuckerAls" : "Haten2ParafacAls", "core",
                  rep_span.id(), index);
    WallTimer decompose;
    Status status = Status::OK();
    if (tucker) {
      Result<TuckerModel> r = Haten2TuckerAls(engine.get(), *x, ts.core,
                                              options);
      status = r.status();
      if (r.ok()) tmodel = std::move(r).value();
    } else {
      Result<KruskalModel> r =
          Haten2ParafacAls(engine.get(), *x, ps.rank, options);
      status = r.status();
      if (r.ok()) kmodel = std::move(r).value();
    }
    rep.decompose_s = decompose.ElapsedSeconds();
    rec.End(call);
    if (!log->Op(status.ok())) return status;
    rep.fit = tucker ? tmodel.fit : kmodel.fit;
    const PipelineStats pipeline = engine->PipelineSnapshot();
    rep.engine = Summarize(pipeline, config);
    rep.iterations = trace.iterations;
    AddDecompositionChildren(&rec, call, trace.iterations, pipeline);

    WallTimer install;
    {
      ScopedSpan s(&rec, "ModelRegistry::Install", "serving", rep_span.id(),
                   index);
      Result<int64_t> version =
          tucker ? registry.InstallTucker(kModelName, tmodel)
                 : registry.InstallKruskal(
                       kModelName, kmodel,
                       std::make_shared<const SparseTensor>(*x));
      if (!log->Op(version.ok())) return version.status();
    }
    rep.install_s = install.ElapsedSeconds();
    rep.staleness_s = total.ElapsedSeconds();
    reps.push_back(std::move(rep));
  }

  // Output checks.
  const int order = x->order();
  for (const Rep& r : reps) {
    log->Check(NearlyEqual(r.fit, reps.front().fit, 1e-12),
               StrFormat("fit differs between repetitions: %.17g vs %.17g",
                         r.fit, reps.front().fit));
  }
  const double fit = reps.back().fit;
  if (!std::isnan(opt.expect_fit)) {
    log->Check(std::fabs(fit - opt.expect_fit) <= kFitTolerance,
               StrFormat("fit %.17g differs from the pinned %.17g", fit,
                         opt.expect_fit));
  }
  if (tucker) {
    log->Check(AllFinite(tmodel.factors), "non-finite Tucker factor entry");
    bool orthonormal = true;
    for (const DenseMatrix& f : tmodel.factors) {
      orthonormal = orthonormal && HasOrthonormalColumns(f);
    }
    log->Check(orthonormal, "Tucker factors are not orthonormal");
    const double g = IndependentTuckerCoreNorm(*x, tmodel);
    const double xn = x->FrobeniusNorm();
    const double fit_check =
        1.0 - std::sqrt(std::max(0.0, xn * xn - g * g)) / xn;
    log->Check(NearlyEqual(g, tmodel.core.FrobeniusNorm(), kFitTolerance),
               StrFormat("core norm %.17g, recomputed %.17g",
                         tmodel.core.FrobeniusNorm(), g));
    log->Check(std::fabs(fit_check - fit) <= kFitTolerance,
               StrFormat("Tucker fit %.17g, recomputed %.17g", fit,
                         fit_check));
    // Table III: DRI runs 2 jobs per bottleneck op (one op per mode per
    // iteration) and its largest job shuffles nnz·(Q+R) records.
    const PredictedCost predicted =
        PredictTuckerCost(Variant::kDri, x->nnz(), x->dim(0), x->dim(1),
                          x->dim(2), ts.core[1], ts.core[2]);
    for (const Rep& r : reps) {
      log->Check(r.engine.jobs == predicted.total_jobs * order * iterations,
                 StrFormat("%lld jobs, expected %lld", (long long)r.engine.jobs,
                           (long long)(predicted.total_jobs * order *
                                       iterations)));
      log->Check(r.engine.max_intermediate ==
                     predicted.max_intermediate_records,
                 StrFormat("max intermediate %lld, Table III predicts %lld",
                           (long long)r.engine.max_intermediate,
                           (long long)predicted.max_intermediate_records));
      log->Check(r.engine.intermediate == reps.front().engine.intermediate,
                 "intermediate records differ between repetitions");
      log->Check(r.engine.sim_s == reps.front().engine.sim_s,
                 "simulated seconds differ between repetitions");
    }
    if (opt.expect_records >= 0) {
      log->Check(reps.back().engine.intermediate == opt.expect_records,
                 StrFormat("%lld intermediate records, pinned %lld",
                           (long long)reps.back().engine.intermediate,
                           (long long)opt.expect_records));
    }
  } else {
    log->Check(AllFinite(kmodel.factors), "non-finite PARAFAC factor entry");
    const double fit_check = IndependentKruskalFit(*x, kmodel);
    log->Check(std::fabs(fit_check - fit) <= kFitTolerance,
               StrFormat("PARAFAC fit %.17g, recomputed %.17g", fit,
                         fit_check));
  }
  // End-to-end metrics.
  auto collect = [&](auto field) {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back(field(r));
    return v;
  };
  const std::vector<double> staleness =
      collect([](const Rep& r) { return r.staleness_s; });
  const TailStat tail = Tail(staleness);
  MetricMap& m = *metrics;
  m["setup_s"] = Median(collect([](const Rep& r) { return r.setup_s; }));
  m["decompose_s"] =
      Median(collect([](const Rep& r) { return r.decompose_s; }));
  m["fit"] = fit;
  m["sim_s"] = Median(collect([](const Rep& r) { return r.engine.sim_s; }));
  m["peak_rss_mb"] = PeakRssMb();
  m["staleness_p50_s"] = Median(staleness);
  // Fewer than 11 repetitions leave no percentile with 10 beyond it; the
  // tail is then the maximum (reported as p100).
  m["staleness_tail_s"] = tail.valid ? tail.value : Max(staleness);
  // A batch user's only request is the decomposition itself: from reading
  // the input to the model installed, i.e. the staleness samples. Nearest-
  // rank p99 of so few samples is their maximum.
  m["query_p50_ms"] = m["staleness_p50_s"] * 1e3;
  m["query_p99_ms"] = NearestRank(staleness, 0.99) * 1e3;
  std::fprintf(stderr, "%s: %zu repetitions, staleness tail p%d\n",
               opt.workload.c_str(), reps.size(),
               tail.valid ? tail.percentile : 100);
  if (!opt.trace) return Status::OK();

  // Per-layer metrics (traced run only).
  MetricMap layer;
  ZeroLayerMetrics(&layer);
  const double file_mb = FileMb(opt.input);
  std::vector<double> first_iter;
  std::vector<double> later_iters;
  for (const Rep& r : reps) {
    for (size_t i = 0; i < r.iterations.size(); ++i) {
      (i == 0 ? first_iter : later_iters)
          .push_back(r.iterations[i].wall_seconds);
    }
  }
  const double load_s = Median(collect([](const Rep& r) { return r.load_s; }));
  layer["tensor.load_s"] = load_s;
  layer["tensor.load_mb_per_s"] = Ratio(file_mb, load_s);
  layer["core.first_iter_s"] = Median(first_iter);
  layer["core.iter_p50_s"] = Median(later_iters);
  layer["core.contract_s"] =
      Median(collect([](const Rep& r) { return r.engine.contract_s; }));
  layer["core.layout_s"] =
      Median(collect([](const Rep& r) { return r.engine.layout_s; }));
  layer["core.driver_self_s"] = Median(collect(
      [](const Rep& r) { return r.decompose_s - r.engine.contract_s; }));
  const double kernel_s =
      Median(collect([](const Rep& r) { return r.engine.kernel_s; }));
  layer["linalg.kernel_s"] = kernel_s;
  layer["core.layout_hit_ratio"] =
      Ratio(static_cast<double>(cache->layout_hits()),
            static_cast<double>(cache->layout_hits() + cache->layout_misses()));
  const EngineSummary& last = reps.back().engine;
  layer["mapreduce.jobs"] = static_cast<double>(last.jobs);
  layer["mapreduce.intermediate_records"] =
      static_cast<double>(last.intermediate);
  layer["mapreduce.max_intermediate_records"] =
      static_cast<double>(last.max_intermediate);
  layer["mapreduce.map_s"] =
      Median(collect([](const Rep& r) { return r.engine.map_s; }));
  layer["mapreduce.combine_s"] =
      Median(collect([](const Rep& r) { return r.engine.combine_s; }));
  layer["mapreduce.shuffle_s"] =
      Median(collect([](const Rep& r) { return r.engine.shuffle_s; }));
  layer["mapreduce.reduce_s"] =
      Median(collect([](const Rep& r) { return r.engine.reduce_s; }));
  layer["mapreduce.scheduler_s"] =
      Median(collect([](const Rep& r) { return r.engine.scheduler_s; }));
  layer["mapreduce.map_skew_ratio"] = last.map_skew;
  layer["mapreduce.task_retries"] = static_cast<double>(last.retries);
  layer["serving.install_s"] =
      Median(collect([](const Rep& r) { return r.install_s; }));
  layer["serving.staleness_tail_pct"] = tail.valid ? tail.percentile : 100;

  // Replay one steady-state iteration through the public layer calls; the
  // per-iteration times are scaled by the iteration count so they split
  // core.driver_self_s.
  const double iters = static_cast<double>(iterations);
  if (tucker) {
    HATEN2_ASSIGN_OR_RETURN(
        Replay replay, ReplayTuckerIteration(engine.get(), *x, tmodel,
                                             ts.core, cache.get(), &rec));
    layer["linalg.solve_s"] = replay.solve_s * iters;
    layer["core.fit_s"] = replay.fit_s;  // Tucker computes its fit once
  } else {
    HATEN2_ASSIGN_OR_RETURN(
        Replay replay, ReplayParafacIteration(engine.get(), *x, kmodel,
                                              cache.get(), &rec));
    layer["core.densify_s"] = replay.densify_s * iters;
    layer["linalg.solve_s"] = replay.solve_s * iters;
    layer["core.fit_s"] = replay.fit_s * iters;
    HATEN2_ASSIGN_OR_RETURN(KernelWork work,
                            MttkrpWorkPerIteration(*x, ps.rank));
    layer["linalg.mttkrp_gflops"] =
        Ratio(work.flops * iters, kernel_s) * 1e-9;
    layer["linalg.mttkrp_flop_per_byte"] = Ratio(work.flops, work.bytes);
  }
  TraceMetrics(rec, opt.trace_out, static_cast<double>(reps.size()), log,
               &layer);
  metrics->insert(layer.begin(), layer.end());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// refit_serve.

struct Epoch {
  double staleness_s = 0.0;
  double merge_s = 0.0;
  double refit_s = 0.0;
  int64_t iterations = 0;
  EngineSummary engine;
  std::vector<IterationStats> trace;
};

Status RunRefitServe(const RunOptions& opt, RunLog* log, MetricMap* metrics) {
  const RefitShape shape = RefitServe(opt.tiny);
  SpanRecorder rec(opt.trace);
  // In-core contraction so refits use (and patch) the CSF layout cache,
  // as haten2_serve --refit_loop does.
  ClusterConfig config;
  config.contraction = "incore";
  HATEN2_RETURN_IF_ERROR(config.Validate());

  // Declared in dependency order, so the controller goes first.
  const KruskalModel start = RefitStart(shape, opt.seed);
  std::unique_ptr<Engine> engine;
  std::unique_ptr<DecompositionTrace> trace;
  std::unique_ptr<ServingStack> serving;
  std::unique_ptr<RefitController> controller;
  std::vector<double> setup_s;
  std::vector<double> load_s;
  for (int64_t rep = 0; rep < kMinReps; ++rep) {
    controller.reset();  // before the registry and engine it points at
    serving.reset();
    engine.reset();
    ScopedSpan rep_span(&rec, StrFormat("setup %lld", (long long)rep),
                        "bench", -1, rep);
    WallTimer t;
    Result<SparseTensor> loaded = [&] {
      ScopedSpan s(&rec, "ReadTensorAuto", "tensor", rep_span.id(), rep);
      return ReadTensorAuto(opt.input);
    }();
    load_s.push_back(t.ElapsedSeconds());
    if (!log->Op(loaded.ok())) return loaded.status();
    SparseTensor base = std::move(loaded).value();
    if (!base.canonical()) {
      ScopedSpan s(&rec, "Canonicalize", "tensor", rep_span.id(), rep);
      base.Canonicalize();
    }
    serving = std::make_unique<ServingStack>();
    engine = std::make_unique<Engine>(config);
    trace = std::make_unique<DecompositionTrace>();
    RefitController::Options options;
    options.model_name = kModelName;
    options.refit.rank = shape.rank;
    options.refit.als.max_iterations = shape.iterations;
    options.refit.als.tolerance = 0.0;  // a fixed 3 iterations per refit
    options.refit.als.trace = trace.get();
    options.refit.als.initial_kruskal = &start;  // bootstrap start
    controller = std::make_unique<RefitController>(
        engine.get(), &serving->registry, std::move(base), options);
    const Status boot = [&] {
      ScopedSpan s(&rec, "RefitController::Bootstrap", "serving",
                   rep_span.id(), rep);
      return controller->Bootstrap();
    }();
    if (!log->Op(boot.ok())) return boot;
    setup_s.push_back(t.ElapsedSeconds());
  }
  const std::vector<int64_t> dims = controller->session().tensor().dims();
  const int64_t bootstrap_iters =
      static_cast<int64_t>(trace->iterations.size());

  Result<std::shared_ptr<const ServedModel>> served =
      serving->registry.Get(kModelName);
  if (!log->Op(served.ok())) return served.status();
  const int64_t num_epochs = EpochCount(opt.tiny, opt.seconds);
  HATEN2_ASSIGN_OR_RETURN(DeltaLog delta_log, DeltaLog::Create(dims));
  Rng delta_rng(opt.seed * 0x2545F4914F6CDD1DULL + 7);
  std::vector<Epoch> epochs;
  std::vector<QueryOutcome> outcomes;
  Status loop = Status::OK();
  {
    OpenLoopGenerator gen(
        &serving->pipeline,
        QueryMaker(**served, opt.seed),
        shape.qps, &rec);
    for (int64_t e = 0; e < num_epochs && loop.ok(); ++e) {
      ScopedSpan epoch_span(&rec, StrFormat("epoch %lld", (long long)e),
                            "bench", -1, e);
      // A slice-local epoch: every append's coordinate on each mode is one
      // of slices_per_mode indices drawn for this epoch.
      std::vector<std::vector<int64_t>> slices(dims.size());
      for (size_t m = 0; m < dims.size(); ++m) {
        for (int64_t s = 0; s < shape.slices_per_mode; ++s) {
          slices[m].push_back(static_cast<int64_t>(
              delta_rng.UniformInt(static_cast<uint64_t>(dims[m]))));
        }
      }
      std::vector<int64_t> idx(dims.size());
      {
        ScopedSpan s(&rec, "DeltaLog::Append", "tensor", epoch_span.id(), e);
        for (int64_t a = 0; a < shape.appends_per_epoch && loop.ok(); ++a) {
          for (size_t m = 0; m < dims.size(); ++m) {
            idx[m] = slices[m][delta_rng.UniformInt(
                static_cast<uint64_t>(shape.slices_per_mode))];
          }
          loop = delta_log.Append(idx.data(), static_cast<int>(idx.size()),
                                  delta_rng.Uniform(0.5, 1.5));
        }
      }
      if (!log->Op(loop.ok())) break;
      Result<int64_t> sealed = [&] {
        ScopedSpan s(&rec, "DeltaLog::SealEpoch", "tensor", epoch_span.id(),
                     e);
        return delta_log.SealEpoch();
      }();
      if (!log->Op(sealed.ok())) {
        loop = sealed.status();
        break;
      }

      const RefitController::Counters before = controller->GetCounters();
      const PipelineStats p_before = engine->PipelineSnapshot();
      const size_t trace_before = trace->iterations.size();
      const int64_t process = rec.Begin("RefitController::ProcessEpoch",
                                        "serving", epoch_span.id(), e);
      WallTimer t;
      loop = controller->ProcessEpoch(delta_log.epoch(*sealed));
      Epoch ep;
      ep.staleness_s = t.ElapsedSeconds();
      rec.End(process);
      if (!log->Op(loop.ok())) break;
      const RefitController::Counters after = controller->GetCounters();
      ep.merge_s = after.refit.merge_seconds - before.refit.merge_seconds;
      ep.refit_s = after.refit.refit_seconds - before.refit.refit_seconds;
      ep.iterations = after.refit.iterations - before.refit.iterations;
      const PipelineStats p_tail =
          PipelineTail(engine->PipelineSnapshot(), p_before.plans.size(),
                       p_before.jobs.size());
      ep.engine = Summarize(p_tail, config);
      ep.trace.assign(trace->iterations.begin() +
                          static_cast<ptrdiff_t>(trace_before),
                      trace->iterations.end());
      if (rec.enabled()) {
        const std::vector<int64_t> kids = AddSequentialChildren(
            &rec, process,
            {{"merge", "tensor", ep.merge_s},
             {"Haten2ParafacAls", "core", ep.refit_s},
             {"install", "serving",
              std::max(0.0, ep.staleness_s - ep.merge_s - ep.refit_s)}});
        AddDecompositionChildren(&rec, kids[1], ep.trace, p_tail);
      }
      epochs.push_back(std::move(ep));
    }
    outcomes = gen.StopAndJoin();
  }
  if (!loop.ok()) return loop;

  // Output checks.
  const RefitController::Counters counters = controller->GetCounters();
  const int64_t n = static_cast<int64_t>(epochs.size());
  log->Check(counters.epochs_sealed == n && counters.epochs_installed == n,
             StrFormat("%lld epochs sealed, %lld sealed by the controller, "
                       "%lld installed",
                       (long long)n, (long long)counters.epochs_sealed,
                       (long long)counters.epochs_installed));
  log->Check(counters.epochs_behind == 0,
             StrFormat("%lld epochs behind at exit",
                       (long long)counters.epochs_behind));
  log->Check(counters.installed_version == 1 + n,
             StrFormat("installed version %lld, expected %lld",
                       (long long)counters.installed_version,
                       (long long)(1 + n)));
  log->Check(bootstrap_iters == shape.iterations,
             "bootstrap ran a different iteration count");
  for (const Epoch& ep : epochs) {
    log->Check(ep.iterations == shape.iterations,
               StrFormat("refit ran %lld iterations",
                         (long long)ep.iterations));
  }
  const KruskalModel& model = controller->session().model();
  log->Check(AllFinite(model.factors), "non-finite refit factor entry");
  const double fit_check =
      IndependentKruskalFit(controller->session().tensor(), model);
  log->Check(std::fabs(fit_check - model.fit) <= kFitTolerance,
             StrFormat("refit fit %.17g, recomputed %.17g", model.fit,
                       fit_check));
  if (!std::isnan(opt.expect_fit)) {
    log->Check(std::fabs(model.fit - opt.expect_fit) <= kFitTolerance,
               StrFormat("fit %.17g differs from the pinned %.17g", model.fit,
                         opt.expect_fit));
  }
  Result<std::shared_ptr<const ServedModel>> final_model =
      serving->registry.Get(kModelName);
  log->Check(final_model.ok() &&
                 (*final_model)->version == counters.installed_version,
             "registry does not serve the last installed version");
  if (final_model.ok()) {
    log->Check(ProbesMatch(serving.get(),
                           QueryMaker(**final_model, opt.seed + 1)),
               "pipeline answers differ from QueryEngine::Execute");
  }

  auto collect = [&](auto field) {
    std::vector<double> v;
    for (const Epoch& ep : epochs) v.push_back(field(ep));
    return v;
  };
  const std::vector<double> staleness =
      collect([](const Epoch& ep) { return ep.staleness_s; });
  const TailStat tail = Tail(staleness);
  MetricMap& m = *metrics;
  m["setup_s"] = Median(setup_s);
  m["decompose_s"] = Median(collect([](const Epoch& ep) { return ep.refit_s; }));
  m["fit"] = model.fit;
  m["sim_s"] = Median(collect([](const Epoch& ep) { return ep.engine.sim_s; }));
  m["peak_rss_mb"] = PeakRssMb();
  m["staleness_p50_s"] = Median(staleness);
  m["staleness_tail_s"] = tail.valid ? tail.value : Max(staleness);
  MetricMap layer;
  ServingMetrics(outcomes, serving.get(), shape.qps, !opt.tiny, log, &m,
                 &layer);
  std::fprintf(stderr, "refit_serve: %lld epochs, %zu queries, staleness "
               "tail p%d\n",
               (long long)n, outcomes.size(), tail.valid ? tail.percentile : 100);
  if (!opt.trace) return Status::OK();

  ZeroLayerMetrics(&layer);
  std::vector<double> first_iter;
  std::vector<double> later_iters;
  for (const Epoch& ep : epochs) {
    for (size_t i = 0; i < ep.trace.size(); ++i) {
      (i == 0 ? first_iter : later_iters).push_back(ep.trace[i].wall_seconds);
    }
  }
  const double load = Median(load_s);
  layer["tensor.load_s"] = load;
  layer["tensor.load_mb_per_s"] = Ratio(FileMb(opt.input), load);
  layer["tensor.merge_s"] =
      Median(collect([](const Epoch& ep) { return ep.merge_s; }));
  layer["core.first_iter_s"] = Median(first_iter);
  layer["core.iter_p50_s"] = Median(later_iters);
  layer["core.contract_s"] =
      Median(collect([](const Epoch& ep) { return ep.engine.contract_s; }));
  layer["core.layout_s"] =
      Median(collect([](const Epoch& ep) { return ep.engine.layout_s; }));
  layer["core.driver_self_s"] = Median(collect(
      [](const Epoch& ep) { return ep.refit_s - ep.engine.contract_s; }));
  const double kernel_s =
      Median(collect([](const Epoch& ep) { return ep.engine.kernel_s; }));
  layer["linalg.kernel_s"] = kernel_s;
  const ContractCache& cache = controller->session().cache();
  layer["core.layout_hit_ratio"] =
      Ratio(static_cast<double>(cache.layout_hits()),
            static_cast<double>(cache.layout_hits() + cache.layout_misses()));
  layer["core.refit_s"] =
      Median(collect([](const Epoch& ep) { return ep.refit_s; }));
  layer["core.refit_iters"] = Median(collect(
      [](const Epoch& ep) { return static_cast<double>(ep.iterations); }));
  layer["core.patch_reuse_ratio"] =
      Ratio(static_cast<double>(cache.layout_slices_reused()),
            static_cast<double>(cache.layout_slices_reused() +
                                cache.layout_slices_rebuilt()));
  layer["core.full_invalidations"] =
      static_cast<double>(cache.layout_full_invalidations());
  HATEN2_ASSIGN_OR_RETURN(
      KernelWork work,
      MttkrpWorkPerIteration(controller->session().tensor(), shape.rank));
  layer["linalg.mttkrp_gflops"] =
      Ratio(work.flops * shape.iterations, kernel_s) * 1e-9;
  layer["linalg.mttkrp_flop_per_byte"] = Ratio(work.flops, work.bytes);
  layer["serving.install_s"] = Median(collect([](const Epoch& ep) {
    return ep.staleness_s - ep.merge_s - ep.refit_s;
  }));
  layer["serving.epochs_behind_max"] =
      static_cast<double>(counters.max_epochs_behind);
  layer["serving.staleness_tail_pct"] = tail.valid ? tail.percentile : 100;
  TraceMetrics(rec, opt.trace_out, static_cast<double>(n), log, &layer);
  metrics->insert(layer.begin(), layer.end());
  return Status::OK();
}

}  // namespace

bool KnownWorkload(const std::string& workload) {
  return workload == "parafac_incore" || workload == "tucker_dataflow" ||
         workload == "refit_serve";
}

std::string InputExtension(const std::string& workload) {
  return workload == "parafac_incore" ? "tns" : "bin";
}

Status GenerateInput(const std::string& workload, bool tiny, uint64_t seed,
                     const std::string& path) {
  if (workload == "parafac_incore") {
    HATEN2_ASSIGN_OR_RETURN(SparseTensor x,
                            KbShapedTensor(ParafacIncore(tiny), seed));
    return WriteTensorText(x, path);
  }
  if (workload == "tucker_dataflow") {
    HATEN2_ASSIGN_OR_RETURN(SparseTensor x,
                            TuckerInput(TuckerDataflow(tiny), seed));
    return WriteTensorBinary(x, path);
  }
  if (workload == "refit_serve") {
    HATEN2_ASSIGN_OR_RETURN(SparseTensor x, RefitInput(RefitServe(tiny), seed));
    return WriteTensorBinary(x, path);
  }
  return Status::InvalidArgument("unknown workload: " + workload);
}

Status RunWorkload(const RunOptions& options, RunLog* log,
                   MetricMap* metrics) {
  if (options.workload == "refit_serve") {
    return RunRefitServe(options, log, metrics);
  }
  if (KnownWorkload(options.workload)) {
    return RunBatch(options, log, metrics);
  }
  return Status::InvalidArgument("unknown workload: " + options.workload);
}

}  // namespace perfbench
}  // namespace haten2
