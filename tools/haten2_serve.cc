// haten2_serve — model-serving front end: loads checkpoints written by
// haten2_cli --output into a ModelRegistry and answers top-k prediction,
// neighbor, and concept queries through the batched request pipeline.
//
// Usage:
//   haten2_serve <model-prefix> [flags]
//
// Flags:
//   --method=parafac|tucker       checkpoint family (default parafac)
//   --name=NAME                   registry name for the model (default
//                                 "default")
//   --tensor=PATH                 the observed tensor the model was fitted
//                                 on; required for top-k predicted-entry
//                                 queries (they score only absent cells)
//   --script=FILE                 run the queries listed in FILE (one per
//                                 line, '#' comments):
//                                   topk <k> [beam]
//                                   neighbors <mode> <row> <n>
//                                   concepts <component> <mode> <n>
//                                 and print their results
//   --clients=N                   without --script: closed-loop load
//                                 threads (default 4)
//   --duration=SECONDS            closed-loop load duration (default 2)
//   --threads=T                   pipeline worker threads (default 4)
//   --batch=B                     micro-batch size (default 16)
//   --queue=N                     bounded queue capacity (default 1024)
//   --cache-entries=N             LRU result-cache entries (default 4096)
//   --cache-shards=S              LRU shards (default 8)
//   --beam=B                      beam precomputed at install and used by
//                                 synthetic top-k queries (default 10)
//   --topk=K                      k of synthetic top-k queries (default 10)
//   --seed=S                      synthetic workload seed (default 17)
//   --stats_json=PATH             write "haten2-serving-v1" telemetry JSON
//                                 (latency percentiles per query class,
//                                 QPS, cache hit rate; with --refit_loop
//                                 also the refit staleness/cost object)
//   --refit_loop                  ingest → refit → serve drill: the
//                                 positional argument is a TENSOR file, not
//                                 a model prefix. Fits it (--rank), installs
//                                 the model, then seals --epochs synthetic
//                                 delta epochs of --epoch_nnz entries each,
//                                 refitting (dirty-slice cache patch, warm
//                                 start) and hot-swapping after every
//                                 epoch while --clients closed-loop threads
//                                 keep querying; each install purges the
//                                 dead version's cache entries
//   --rank=R                      refit-loop decomposition rank (default 8)
//   --iterations=N                ALS iterations per (re)fit (default 10)
//   --epochs=E                    synthetic epochs to seal (default 3)
//   --epoch_nnz=N                 triples appended per epoch (default 200)
//
// Size flags (--clients, --threads, --batch, --queue, --cache-entries,
// --cache-shards) must fit an int and be >= 0.
// Exit code 0 on success, 1 on flag, load or query-script errors.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "mapreduce/engine.h"
#include "serving/model_registry.h"
#include "serving/query_engine.h"
#include "serving/refit_controller.h"
#include "serving/request_pipeline.h"
#include "serving/serving_stats.h"
#include "tensor/delta_log.h"
#include "tensor/tensor_binary_io.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace haten2 {
namespace {

constexpr const char* kUsage =
    "usage: haten2_serve <model-prefix>\n"
    "       [--method=parafac|tucker] [--name=NAME] [--tensor=PATH]\n"
    "       [--script=FILE | --clients=N --duration=SECONDS]\n"
    "       [--threads=T] [--batch=B] [--queue=N]\n"
    "       [--cache-entries=N] [--cache-shards=S]\n"
    "       [--beam=B] [--topk=K] [--seed=S] [--stats_json=PATH]\n"
    "       haten2_serve <tensor-file> --refit_loop [--rank=R]\n"
    "       [--iterations=N] [--epochs=E] [--epoch_nnz=N]\n"
    "       [--clients=N] [--stats_json=PATH]\n";

std::string FormatIndex(const std::vector<int64_t>& idx) {
  std::string out = "(";
  for (size_t m = 0; m < idx.size(); ++m) {
    if (m > 0) out += ", ";
    out += StrFormat("%lld", (long long)idx[m]);
  }
  return out + ")";
}

/// Parses one script line into a Query; empty result for blank/comment.
Result<Query> ParseScriptLine(const std::string& model_name,
                              const std::string& line, int lineno) {
  std::vector<std::string> tokens = SplitWhitespace(line);
  Query q;
  q.model = model_name;
  auto arg = [&](size_t i) -> Result<int64_t> {
    if (i >= tokens.size()) {
      return Status::InvalidArgument(
          StrFormat("script line %d: missing argument %zu", lineno, i));
    }
    return ParseInt64(tokens[i]);
  };
  if (tokens[0] == "topk") {
    q.kind = QueryKind::kTopK;
    HATEN2_ASSIGN_OR_RETURN(q.k, arg(1));
    if (tokens.size() > 2) {
      HATEN2_ASSIGN_OR_RETURN(q.beam, arg(2));
    }
  } else if (tokens[0] == "neighbors") {
    q.kind = QueryKind::kNeighbors;
    HATEN2_ASSIGN_OR_RETURN(int64_t mode, arg(1));
    q.mode = static_cast<int>(mode);
    HATEN2_ASSIGN_OR_RETURN(q.row, arg(2));
    HATEN2_ASSIGN_OR_RETURN(q.k, arg(3));
  } else if (tokens[0] == "concepts") {
    q.kind = QueryKind::kConcepts;
    HATEN2_ASSIGN_OR_RETURN(q.component, arg(1));
    HATEN2_ASSIGN_OR_RETURN(int64_t mode, arg(2));
    q.mode = static_cast<int>(mode);
    HATEN2_ASSIGN_OR_RETURN(q.k, arg(3));
  } else {
    return Status::InvalidArgument(StrFormat(
        "script line %d: unknown query '%s'", lineno, tokens[0].c_str()));
  }
  return q;
}

void PrintResult(const Query& query, const QueryResult& result,
                 bool cache_hit) {
  switch (query.kind) {
    case QueryKind::kTopK:
      std::printf("topk k=%lld beam=%lld (v%lld%s, %lld candidates "
                  "scored):\n",
                  (long long)query.k, (long long)query.beam,
                  (long long)result.model_version, cache_hit ? ", cached" : "",
                  (long long)result.prediction_stats.candidates_scored);
      for (const PredictedEntry& e : result.entries) {
        std::printf("  %s  %.6f\n", FormatIndex(e.index).c_str(), e.score);
      }
      break;
    case QueryKind::kNeighbors:
      std::printf("neighbors mode=%d row=%lld (v%lld%s):\n", query.mode,
                  (long long)query.row, (long long)result.model_version,
                  cache_hit ? ", cached" : "");
      for (const ScoredRow& r : result.rows) {
        std::printf("  row %lld  sim %.6f\n", (long long)r.row, r.score);
      }
      break;
    case QueryKind::kConcepts:
      std::printf("concepts component=%lld mode=%d (v%lld%s):\n",
                  (long long)query.component, query.mode,
                  (long long)result.model_version,
                  cache_hit ? ", cached" : "");
      for (const ScoredRow& r : result.rows) {
        std::printf("  row %lld  loading %.6f\n", (long long)r.row, r.score);
      }
      break;
  }
}

/// Runs a query script through the pipeline; returns the number of failed
/// queries.
int RunScript(const std::string& path, const std::string& model_name,
              RequestPipeline* pipeline) {
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "cannot open --script=%s\n", path.c_str());
    return 1;
  }
  struct Issued {
    Query query;
    std::future<RequestPipeline::Response> future;
  };
  std::vector<Issued> issued;
  std::string line;
  int lineno = 0;
  int failures = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    Result<Query> q = ParseScriptLine(model_name, line, lineno);
    if (!q.ok()) {
      std::fprintf(stderr, "%s\n", q.status().ToString().c_str());
      ++failures;
      continue;
    }
    Query query = std::move(q).value();
    issued.push_back(Issued{query, pipeline->Submit(std::move(query))});
  }
  for (Issued& i : issued) {
    RequestPipeline::Response response = i.future.get();
    if (!response.status.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   response.status.ToString().c_str());
      ++failures;
      continue;
    }
    PrintResult(i.query, *response.result, response.cache_hit);
  }
  return failures;
}

struct LoadSpec {
  std::string model_name;
  bool topk_available = false;
  int order = 0;
  int64_t rank = 0;
  std::vector<int64_t> dims;  // factor row counts per mode
  int64_t topk = 10;
  int64_t beam = 10;
  double duration_seconds = 2.0;
  int clients = 4;
  uint64_t seed = 17;
};

/// Closed-loop synthetic load: each client keeps exactly one query in
/// flight. Parameters are drawn from small Zipf-skewed pools so the LRU
/// sees realistic repetition.
void RunSyntheticLoad(const LoadSpec& spec, RequestPipeline* pipeline) {
  std::atomic<uint64_t> issued{0};
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(spec.clients));
  for (int c = 0; c < spec.clients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(spec.seed + static_cast<uint64_t>(c) * 7919);
      WallTimer timer;
      while (timer.ElapsedSeconds() < spec.duration_seconds) {
        Query q;
        q.model = spec.model_name;
        double roll = rng.Uniform();
        if (spec.topk_available && roll < 0.2) {
          q.kind = QueryKind::kTopK;
          q.k = spec.topk;
          q.beam = spec.beam;
        } else if (roll < 0.6) {
          q.kind = QueryKind::kNeighbors;
          q.mode = static_cast<int>(rng.UniformInt(
              static_cast<uint64_t>(spec.order)));
          int64_t dim = spec.dims[static_cast<size_t>(q.mode)];
          // Zipf-skewed anchor: hot entities repeat, so the cache can
          // help; the tail keeps it honest.
          q.row = static_cast<int64_t>(rng.Zipf(
              static_cast<uint64_t>(std::min<int64_t>(dim, 1024)), 1.1));
          q.k = 10;
        } else {
          q.kind = QueryKind::kConcepts;
          q.component = static_cast<int64_t>(
              rng.UniformInt(static_cast<uint64_t>(spec.rank)));
          q.mode = static_cast<int>(rng.UniformInt(
              static_cast<uint64_t>(spec.order)));
          q.k = 10;
        }
        RequestPipeline::Response response =
            pipeline->Submit(std::move(q)).get();
        (void)response;
        issued.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  std::printf("closed-loop load: %llu queries from %d clients in %.1fs\n",
              (unsigned long long)issued.load(), spec.clients,
              spec.duration_seconds);
}

/// Closed-loop load threads that run until `stop` flips — the refit-loop
/// drill's traffic, querying *while* the controller refits and hot-swaps.
class BackgroundLoad {
 public:
  BackgroundLoad(const LoadSpec& spec, RequestPipeline* pipeline) {
    clients_.reserve(static_cast<size_t>(spec.clients));
    for (int c = 0; c < spec.clients; ++c) {
      clients_.emplace_back([this, spec, pipeline, c] {
        Rng rng(spec.seed + static_cast<uint64_t>(c) * 7919);
        while (!stop_.load(std::memory_order_relaxed)) {
          Query q;
          q.model = spec.model_name;
          double roll = rng.Uniform();
          if (spec.topk_available && roll < 0.2) {
            q.kind = QueryKind::kTopK;
            q.k = spec.topk;
            q.beam = spec.beam;
          } else if (roll < 0.6) {
            q.kind = QueryKind::kNeighbors;
            q.mode = static_cast<int>(
                rng.UniformInt(static_cast<uint64_t>(spec.order)));
            int64_t dim = spec.dims[static_cast<size_t>(q.mode)];
            q.row = static_cast<int64_t>(rng.Zipf(
                static_cast<uint64_t>(std::min<int64_t>(dim, 1024)), 1.1));
            q.k = 10;
          } else {
            q.kind = QueryKind::kConcepts;
            q.component = static_cast<int64_t>(
                rng.UniformInt(static_cast<uint64_t>(spec.rank)));
            q.mode = static_cast<int>(
                rng.UniformInt(static_cast<uint64_t>(spec.order)));
            q.k = 10;
          }
          (void)pipeline->Submit(std::move(q)).get();
          issued_.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
  }

  uint64_t StopAndJoin() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : clients_) {
      if (t.joinable()) t.join();
    }
    return issued_.load(std::memory_order_relaxed);
  }

  ~BackgroundLoad() { StopAndJoin(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> issued_{0};
  std::vector<std::thread> clients_;
};

/// Seals `epochs` synthetic epochs of `epoch_nnz` uniform triples each into
/// a DeltaLog over `dims` (seeded, so the drill is reproducible).
Result<DeltaLog> SynthesizeDeltaLog(const std::vector<int64_t>& dims,
                                    int64_t epochs, int64_t epoch_nnz,
                                    uint64_t seed) {
  HATEN2_ASSIGN_OR_RETURN(DeltaLog log, DeltaLog::Create(dims));
  Rng rng(seed ^ 0xd17a);
  std::vector<int64_t> idx(dims.size());
  for (int64_t e = 0; e < epochs; ++e) {
    for (int64_t i = 0; i < epoch_nnz; ++i) {
      for (size_t m = 0; m < dims.size(); ++m) {
        idx[m] = static_cast<int64_t>(
            rng.UniformInt(static_cast<uint64_t>(dims[m])));
      }
      HATEN2_RETURN_IF_ERROR(log.Append(
          idx.data(), static_cast<int>(idx.size()), rng.Uniform() + 0.5));
    }
    HATEN2_RETURN_IF_ERROR(log.SealEpoch().status());
  }
  return log;
}

struct RefitLoopSpec {
  std::string tensor_path;
  std::string model_name;
  std::string stats_json;
  int64_t rank = 8;
  int64_t iterations = 10;
  int64_t epochs = 3;
  int64_t epoch_nnz = 200;
  int64_t beam = 10;
  int64_t topk = 10;
  int clients = 4;
  size_t threads = 4;
  size_t batch = 16;
  size_t queue = 1024;
  size_t cache_entries = 4096;
  size_t cache_shards = 8;
  uint64_t seed = 17;
};

/// The --refit_loop drill: fit the base tensor, then seal synthetic epochs
/// and refit/hot-swap after each one while closed-loop clients keep
/// querying the registry name.
int RunRefitLoop(const RefitLoopSpec& spec) {
  Result<SparseTensor> base = ReadTensorAuto(spec.tensor_path);
  if (!base.ok()) {
    std::fprintf(stderr, "reading %s: %s\n", spec.tensor_path.c_str(),
                 base.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded %s: %s\n", spec.tensor_path.c_str(),
              base->DebugString().c_str());

  // In-core contraction so the refits exercise the CSF layout cache — the
  // thing dirty-slice invalidation patches.
  ClusterConfig config;
  config.contraction = "incore";
  Status config_status = config.Validate();
  if (!config_status.ok()) {
    std::fprintf(stderr, "%s\n", config_status.ToString().c_str());
    return 1;
  }
  Engine engine(config);

  RegistryOptions registry_options;
  registry_options.beam_options.beam = spec.beam;
  ModelRegistry registry(registry_options);
  QueryEngine query_engine(&registry);
  ServingStats stats;
  PipelineOptions pipeline_options;
  pipeline_options.num_threads = spec.threads;
  pipeline_options.max_batch = spec.batch;
  pipeline_options.queue_capacity = spec.queue;
  pipeline_options.cache_capacity = spec.cache_entries;
  pipeline_options.cache_shards = spec.cache_shards;
  RequestPipeline pipeline(&query_engine, &stats, pipeline_options);
  // Wire the purge hook before the first install so no version's dead
  // entries ever linger (the regression this drill exists to catch).
  registry.SetInstallListener(
      [&pipeline](const std::string& name, int64_t version) {
        pipeline.PurgeModelExcept(name, version);
      });

  RefitController::Options controller_options;
  controller_options.model_name = spec.model_name;
  controller_options.refit.rank = spec.rank;
  controller_options.refit.als.max_iterations =
      static_cast<int>(spec.iterations);
  controller_options.refit.als.seed = spec.seed;
  RefitController controller(&engine, &registry, std::move(*base),
                             controller_options);
  const std::vector<int64_t> dims = controller.session().tensor().dims();

  WallTimer timer;
  Status boot = controller.Bootstrap();
  if (!boot.ok()) {
    std::fprintf(stderr, "bootstrap fit: %s\n", boot.ToString().c_str());
    pipeline.Shutdown();
    return 1;
  }
  std::printf("bootstrap: fit %.4f installed as '%s' v%lld (%s)\n",
              controller.session().model().fit, spec.model_name.c_str(),
              (long long)controller.GetCounters().installed_version,
              HumanSeconds(timer.ElapsedSeconds()).c_str());

  Result<DeltaLog> log =
      SynthesizeDeltaLog(dims, spec.epochs, spec.epoch_nnz, spec.seed);
  if (!log.ok()) {
    std::fprintf(stderr, "%s\n", log.status().ToString().c_str());
    pipeline.Shutdown();
    return 1;
  }

  Status loop_status = Status::OK();
  uint64_t load_queries = 0;
  {
    Result<std::shared_ptr<const ServedModel>> served =
        registry.Get(spec.model_name);
    if (!served.ok()) {
      std::fprintf(stderr, "%s\n", served.status().ToString().c_str());
      pipeline.Shutdown();
      return 1;
    }
    LoadSpec load;
    load.model_name = spec.model_name;
    load.topk_available = (*served)->observed != nullptr;
    load.order = (*served)->order();
    load.rank = (*served)->rank();
    for (const DenseMatrix& f : (*served)->factors()) {
      load.dims.push_back(f.rows());
    }
    load.topk = spec.topk;
    load.beam = spec.beam;
    load.clients = spec.clients;
    load.seed = spec.seed;
    BackgroundLoad traffic(load, &pipeline);
    Result<int64_t> ingested = controller.CatchUp(*log);
    load_queries = traffic.StopAndJoin();
    loop_status = ingested.status();
  }
  pipeline.Shutdown();
  stats.EndWindow();
  if (!loop_status.ok()) {
    std::fprintf(stderr, "refit loop: %s\n", loop_status.ToString().c_str());
    return 1;
  }

  RefitController::Counters counters = controller.GetCounters();
  ShardedLruCache<QueryResult>::Stats cache = pipeline.CacheStats();
  std::printf(
      "refit loop: %lld epochs sealed, %lld installed "
      "(max %lld behind), now serving v%lld at fit %.4f\n",
      (long long)counters.epochs_sealed, (long long)counters.epochs_installed,
      (long long)counters.max_epochs_behind,
      (long long)counters.installed_version, counters.refit.last_fit);
  std::printf(
      "cost: merge %s + refit %s over %lld delta nnz, %lld ALS iterations; "
      "%llu queries served during the loop, %llu stale cache entries "
      "purged\n",
      HumanSeconds(counters.refit.merge_seconds).c_str(),
      HumanSeconds(counters.refit.refit_seconds).c_str(),
      (long long)counters.refit.delta_nnz,
      (long long)counters.refit.iterations,
      (unsigned long long)load_queries, (unsigned long long)cache.purges);

  if (!spec.stats_json.empty()) {
    ServingStats::CacheCounters cache_counters;
    cache_counters.hits = cache.hits;
    cache_counters.misses = cache.misses;
    cache_counters.evictions = cache.evictions;
    cache_counters.purges = cache.purges;
    cache_counters.entries = cache.entries;
    cache_counters.hit_rate = cache.HitRate();
    ServingStats::RefitTelemetry refit;
    refit.epochs_sealed = counters.epochs_sealed;
    refit.epochs_installed = counters.epochs_installed;
    refit.epochs_behind = counters.epochs_behind;
    refit.max_epochs_behind = counters.max_epochs_behind;
    refit.installed_version = counters.installed_version;
    refit.delta_nnz = counters.refit.delta_nnz;
    refit.merge_seconds = counters.refit.merge_seconds;
    refit.refit_seconds = counters.refit.refit_seconds;
    refit.refit_iterations = counters.refit.iterations;
    refit.last_fit = counters.refit.last_fit;
    std::vector<ServingStats::ModelRow> models;
    for (const std::string& n : registry.Names()) {
      Result<std::shared_ptr<const ServedModel>> m = registry.Get(n);
      if (!m.ok()) continue;
      ServingStats::ModelRow row;
      row.name = n;
      row.kind = ModelKindName((*m)->kind);
      row.version = (*m)->version;
      row.order = (*m)->order();
      row.rank = (*m)->rank();
      models.push_back(std::move(row));
    }
    Status written = WriteServingStatsJsonFile(
        stats.ToJson("haten2_serve", cache_counters, models, &refit),
        spec.stats_json);
    if (!written.ok()) {
      std::fprintf(stderr, "--stats_json: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", spec.stats_json.c_str());
  }
  return 0;
}

int RealMain(int argc, char** argv) {
  FlagParser flags(argc, argv);
  Status valid = flags.Validate(
      {"method", "name", "tensor", "script", "clients", "duration",
       "threads", "batch", "queue", "cache-entries", "cache-shards", "beam",
       "topk", "seed", "stats_json", "refit_loop", "rank", "iterations",
       "epochs", "epoch_nnz", "help"});
  if (!valid.ok() || flags.GetBool("help", false) ||
      flags.positional().size() != 1) {
    if (!valid.ok()) std::fprintf(stderr, "%s\n", valid.ToString().c_str());
    std::fputs(kUsage, stderr);
    return flags.GetBool("help", false) ? 0 : 1;
  }

  const std::string prefix = flags.positional()[0];
  const std::string method = flags.GetString("method", "parafac");
  const std::string name = flags.GetString("name", "default");
  const std::string tensor_path = flags.GetString("tensor", "");
  const std::string script = flags.GetString("script", "");
  const std::string stats_json = flags.GetString("stats_json", "");
  Result<int> clients = flags.GetInt32("clients", 4);
  Result<double> duration = flags.GetDouble("duration", 2.0);
  Result<int> threads = flags.GetInt32("threads", 4);
  Result<int> batch = flags.GetInt32("batch", 16);
  Result<int> queue = flags.GetInt32("queue", 1024);
  Result<int> cache_entries = flags.GetInt32("cache-entries", 4096);
  Result<int> cache_shards = flags.GetInt32("cache-shards", 8);
  Result<int64_t> beam = flags.GetInt("beam", 10);
  Result<int64_t> topk = flags.GetInt("topk", 10);
  Result<int64_t> seed = flags.GetInt("seed", 17);
  Result<int64_t> rank = flags.GetInt("rank", 8);
  Result<int64_t> iterations = flags.GetInt("iterations", 10);
  Result<int64_t> epochs = flags.GetInt("epochs", 3);
  Result<int64_t> epoch_nnz = flags.GetInt("epoch_nnz", 200);
  for (const Status& s :
       {clients.status(), duration.status(), threads.status(),
        batch.status(), queue.status(), cache_entries.status(),
        cache_shards.status(), beam.status(), topk.status(),
        seed.status(), rank.status(), iterations.status(),
        epochs.status(), epoch_nnz.status()}) {
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  // The size flags become thread counts and buffer sizes, so a negative
  // value must not wrap. Zero is allowed: --cache-entries=0 turns the
  // cache off, and RequestPipeline reads 0 as 1 for the other sizes.
  for (const auto& [flag, value] :
       {std::pair<const char*, int>{"clients", *clients},
        {"threads", *threads},
        {"batch", *batch},
        {"queue", *queue},
        {"cache-entries", *cache_entries},
        {"cache-shards", *cache_shards}}) {
    if (value < 0) {
      std::fprintf(stderr, "flag --%s: must be >= 0, got %d\n", flag, value);
      return 1;
    }
  }

  if (flags.GetBool("refit_loop", false)) {
    RefitLoopSpec spec;
    spec.tensor_path = prefix;  // the positional is a tensor file here
    spec.model_name = name;
    spec.stats_json = stats_json;
    spec.rank = *rank;
    spec.iterations = *iterations;
    spec.epochs = *epochs;
    spec.epoch_nnz = *epoch_nnz;
    spec.beam = *beam;
    spec.topk = *topk;
    spec.clients = *clients;
    spec.threads = static_cast<size_t>(*threads);
    spec.batch = static_cast<size_t>(*batch);
    spec.queue = static_cast<size_t>(*queue);
    spec.cache_entries = static_cast<size_t>(*cache_entries);
    spec.cache_shards = static_cast<size_t>(*cache_shards);
    spec.seed = static_cast<uint64_t>(*seed);
    return RunRefitLoop(spec);
  }
  if (method != "parafac" && method != "tucker") {
    std::fprintf(stderr, "unknown --method=%s\n%s", method.c_str(), kUsage);
    return 1;
  }

  RegistryOptions registry_options;
  registry_options.beam_options.beam = *beam;
  ModelRegistry registry(registry_options);
  WallTimer load_timer;
  Result<int64_t> version =
      method == "parafac" ? registry.LoadKruskal(name, prefix, tensor_path)
                          : registry.LoadTucker(name, prefix);
  if (!version.ok()) {
    std::fprintf(stderr, "loading %s: %s\n", prefix.c_str(),
                 version.status().ToString().c_str());
    return 1;
  }
  Result<std::shared_ptr<const ServedModel>> served = registry.Get(name);
  if (!served.ok()) {
    std::fprintf(stderr, "%s\n", served.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded %s model '%s' v%lld: %d modes, rank %lld (%s)\n",
              method.c_str(), name.c_str(), (long long)*version,
              (*served)->order(), (long long)(*served)->rank(),
              HumanSeconds(load_timer.ElapsedSeconds()).c_str());

  QueryEngine engine(&registry);
  ServingStats stats;
  PipelineOptions pipeline_options;
  pipeline_options.num_threads = static_cast<size_t>(*threads);
  pipeline_options.max_batch = static_cast<size_t>(*batch);
  pipeline_options.queue_capacity = static_cast<size_t>(*queue);
  pipeline_options.cache_capacity = static_cast<size_t>(*cache_entries);
  pipeline_options.cache_shards = static_cast<size_t>(*cache_shards);

  int failures = 0;
  {
    RequestPipeline pipeline(&engine, &stats, pipeline_options);
    if (!script.empty()) {
      failures = RunScript(script, name, &pipeline);
    } else {
      LoadSpec spec;
      spec.model_name = name;
      spec.topk_available =
          (*served)->kind == ModelKind::kKruskal &&
          (*served)->observed != nullptr;
      spec.order = (*served)->order();
      spec.rank = (*served)->rank();
      for (const DenseMatrix& f : (*served)->factors()) {
        spec.dims.push_back(f.rows());
      }
      spec.topk = *topk;
      spec.beam = *beam;
      spec.duration_seconds = *duration;
      spec.clients = *clients;
      spec.seed = static_cast<uint64_t>(*seed);
      RunSyntheticLoad(spec, &pipeline);
    }
    pipeline.Shutdown();
    stats.EndWindow();

    ShardedLruCache<QueryResult>::Stats cache = pipeline.CacheStats();
    std::printf("served %llu queries, %.0f qps, cache hit rate %.1f%% "
                "(%llu hits / %llu lookups)\n",
                (unsigned long long)stats.TotalQueries(), stats.Qps(),
                100.0 * cache.HitRate(), (unsigned long long)cache.hits,
                (unsigned long long)(cache.hits + cache.misses));

    if (!stats_json.empty()) {
      ServingStats::CacheCounters counters;
      counters.hits = cache.hits;
      counters.misses = cache.misses;
      counters.evictions = cache.evictions;
      counters.purges = cache.purges;
      counters.entries = cache.entries;
      counters.hit_rate = cache.HitRate();
      std::vector<ServingStats::ModelRow> models;
      for (const std::string& n : registry.Names()) {
        Result<std::shared_ptr<const ServedModel>> m = registry.Get(n);
        if (!m.ok()) continue;
        ServingStats::ModelRow row;
        row.name = n;
        row.kind = ModelKindName((*m)->kind);
        row.version = (*m)->version;
        row.order = (*m)->order();
        row.rank = (*m)->rank();
        models.push_back(std::move(row));
      }
      Status written = WriteServingStatsJsonFile(
          stats.ToJson("haten2_serve", counters, models), stats_json);
      if (!written.ok()) {
        std::fprintf(stderr, "--stats_json: %s\n",
                     written.ToString().c_str());
        return 1;
      }
      std::printf("wrote %s\n", stats_json.c_str());
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace haten2

int main(int argc, char** argv) { return haten2::RealMain(argc, argv); }
