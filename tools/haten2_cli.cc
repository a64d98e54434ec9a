// haten2 — command-line front end to the library, for downstream users who
// just want factors out of a tensor file.
//
// Usage:
//   haten2_cli <tensor-file> [flags]
//
// Flags:
//   --method=parafac|tucker|parafac-nn|tucker-nn
//                                        decomposition (default parafac;
//                                        *-nn = nonnegative variants)
//   --rank=R                             PARAFAC rank (default 10)
//   --core=PxQxR                         Tucker core size (default 10 per
//                                        mode)
//   --variant=dri|drn|dnn|naive          HaTen2 variant (default dri)
//   --iterations=N                       max ALS iterations (default 20)
//   --tolerance=T                        convergence tolerance (default 1e-6)
//   --seed=S                             initialization seed (default 17)
//   --machines=M                         simulated cluster size (default 40)
//   --threads=T                          execution threads (default 2)
//   --max_concurrent_jobs=J              cap on plan nodes the scheduler
//                                        runs concurrently (default 1 =
//                                        serial legacy order)
//   --tucker_sketch=none|gaussian|countsketch
//                                        randomized (sketched) Tucker HOOI
//                                        (default none = exact SVD); with a
//                                        sketch, --method=tucker projects
//                                        the contracted factors to
//                                        --sketch_size columns before the
//                                        merge jobs and range-finds on the
//                                        narrow blocks; seeded and
//                                        bit-reproducible at fixed --seed
//   --sketch_size=S                      sketch width (default 0 = largest
//                                        core dimension + 4; explicit
//                                        values must be >= the largest
//                                        core dimension)
//   --exact_polish_sweeps=P              exact HOOI sweeps appended at the
//                                        end of a sketched run to recover
//                                        accuracy (default 2)
//   --contraction=auto|dataflow|incore   contraction strategy (default
//                                        dataflow = the paper's MapReduce
//                                        pipelines; incore = DFacTo-style
//                                        in-memory kernels, no shuffle;
//                                        auto picks in-core whenever the
//                                        estimated layout fits the budget)
//   --incore_memory_mb=MB                in-core layout memory budget
//                                        consulted by --contraction=auto
//                                        (default 1024)
//   --budget-mb=B                        shuffle-memory budget (0=unlimited)
//   --output=PREFIX                      write factors to PREFIX.mode<k>.txt
//                                        (and PREFIX.lambda.txt / .core.txt)
//   --checkpoint_dir=DIR                 write atomic iteration checkpoints
//                                        under DIR (factors + iteration
//                                        counter + convergence state); a
//                                        killed run resumes bit-identically
//                                        with --resume
//   --checkpoint_every=N                 checkpoint after every N-th
//                                        iteration (default 5)
//   --checkpoint_keep=K                  retain the newest K checkpoints
//                                        (default 2)
//   --resume                             (bare) resume from the newest
//                                        checkpoint in --checkpoint_dir,
//                                        continuing the exact iterate
//                                        sequence mid-run
//   --resume=PREFIX                      warm-start from a model previously
//                                        written with --output (fresh run
//                                        from those factors; tucker-nn
//                                        also starts from its core)
//   --task_failure_prob=P                failure injection: probability each
//                                        map-task attempt crashes
//                                        (deterministic; default 0)
//   --max_task_attempts=A                attempts per map task before the
//                                        job aborts (default 4)
//   --max_node_attempts=A                plan-level recovery: attempts per
//                                        plan node before the run fails
//                                        (default 1 = no node retries)
//   --ingest_log=PATH                    streaming ingest (parafac
//                                        methods only):
//                                        after fitting <tensor-file> as the
//                                        base, merge PATH epoch by epoch,
//                                        patch the contraction cache's dirty
//                                        slices, and refit warm-started
//                                        from the previous factors. PATH is
//                                        either a binary delta log
//                                        (delta_log.h) or any tensor file,
//                                        chopped into epochs of --epoch_nnz
//                                        entries
//   --epoch_nnz=N                        entries per sealed epoch when
//                                        --ingest_log is a plain tensor
//                                        file (default 0 = one epoch)
//   --one-based                          read FROSTT-style 1-based indices
//   --stats                              print the MapReduce job log
//   --stats_json=PATH                    write the run's statistics (per-job
//                                        phase times, intermediate-data
//                                        records/bytes, per-iteration fit,
//                                        retry/backoff counters)
//                                        as "haten2-stats-v12" JSON; written
//                                        on failures too, so o.o.m. runs
//                                        keep their post-mortem numbers
//
// Exit code 0 on success; on o.o.m. prints the paper-style diagnosis and
// exits 2.

#include <cstdio>

#include "core/incremental_refit.h"
#include "core/nonnegative_tucker.h"
#include "core/parafac.h"
#include "core/sketched_tucker.h"
#include "core/tucker.h"
#include "tensor/delta_log.h"
#include "tensor/model_io.h"
#include "mapreduce/cost_model.h"
#include "mapreduce/engine.h"
#include "mapreduce/stats_json.h"
#include "tensor/tensor_binary_io.h"
#include "tensor/tensor_io.h"
#include "util/flags.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace haten2 {
namespace {

constexpr const char* kUsage =
    "usage: haten2_cli <tensor-file>\n"
    "       [--method=parafac|tucker|parafac-nn|tucker-nn]\n"
    "       [--rank=R] [--core=PxQxR] [--variant=dri|drn|dnn|naive]\n"
    "       [--iterations=N] [--tolerance=T] [--seed=S] [--machines=M]\n"
    "       [--threads=T] [--max_concurrent_jobs=J] [--budget-mb=B]\n"
    "       [--contraction=auto|dataflow|incore] [--incore_memory_mb=MB]\n"
    "       [--tucker_sketch=none|gaussian|countsketch] [--sketch_size=S]\n"
    "       [--exact_polish_sweeps=P]\n"
    "       [--output=PREFIX] [--resume[=PREFIX]] [--stats]\n"
    "       [--checkpoint_dir=DIR] [--checkpoint_every=N]\n"
    "       [--checkpoint_keep=K] [--task_failure_prob=P]\n"
    "       [--max_task_attempts=A] [--max_node_attempts=A]\n"
    "       [--ingest_log=PATH] [--epoch_nnz=N]\n"
    "       [--stats_json=PATH]\n";

Result<Variant> ParseVariant(const std::string& name) {
  if (name == "dri") return Variant::kDri;
  if (name == "drn") return Variant::kDrn;
  if (name == "dnn") return Variant::kDnn;
  if (name == "naive") return Variant::kNaive;
  return Status::InvalidArgument("unknown variant: " + name);
}

/// Loads --ingest_log: a binary delta log as-is, or any tensor file chopped
/// into epochs of `epoch_nnz` entries in storage order.
Result<DeltaLog> LoadIngestLog(const std::string& path,
                               const std::vector<int64_t>& dims,
                               int64_t epoch_nnz) {
  Result<DeltaLog> log = ReadDeltaLogBinary(path);
  if (log.ok()) {
    if (log->dims() != dims) {
      return Status::InvalidArgument(
          "--ingest_log: delta log shape does not match the base tensor");
    }
    return log;
  }
  Result<SparseTensor> triples = ReadTensorAuto(path);
  if (!triples.ok()) {
    // The binary-log parse error is the more specific of the two when the
    // file at least had the log magic; otherwise report the tensor error.
    return triples.status();
  }
  return DeltaLogFromTensor(*triples, dims, epoch_nnz);
}

int RealMain(int argc, char** argv) {
  FlagParser flags(argc, argv);
  Status valid = flags.Validate({"method", "rank", "core", "variant",
                                 "iterations", "tolerance", "seed",
                                 "machines", "threads",
                                 "max_concurrent_jobs", "budget-mb",
                                 "contraction", "incore_memory_mb",
                                 "tucker_sketch", "sketch_size",
                                 "exact_polish_sweeps",
                                 "output", "resume", "stats", "stats_json",
                                 "checkpoint_dir", "checkpoint_every",
                                 "checkpoint_keep", "task_failure_prob",
                                 "max_task_attempts", "max_node_attempts",
                                 "ingest_log", "epoch_nnz", "one-based",
                                 "help"});
  if (!valid.ok() || flags.GetBool("help", false) ||
      flags.positional().size() != 1) {
    if (!valid.ok()) std::fprintf(stderr, "%s\n", valid.ToString().c_str());
    std::fputs(kUsage, stderr);
    return flags.GetBool("help", false) ? 0 : 1;
  }

  const std::string path = flags.positional()[0];
  Result<SparseTensor> tensor =
      flags.GetBool("one-based", false)
          ? ReadTensorText(path, TensorTextOptions{.index_base = 1})
          : ReadTensorAuto(path);  // text or binary
  if (!tensor.ok()) {
    std::fprintf(stderr, "reading %s: %s\n", path.c_str(),
                 tensor.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded %s: %s\n", path.c_str(),
              tensor->DebugString().c_str());

  Result<Variant> variant = ParseVariant(flags.GetString("variant", "dri"));
  Result<int64_t> rank = flags.GetInt("rank", 10);
  Result<int64_t> iterations = flags.GetInt("iterations", 20);
  Result<double> tolerance = flags.GetDouble("tolerance", 1e-6);
  Result<int64_t> seed = flags.GetInt("seed", 17);
  Result<int64_t> machines = flags.GetInt("machines", 40);
  Result<int64_t> threads = flags.GetInt("threads", 2);
  Result<int64_t> max_concurrent_jobs =
      flags.GetInt("max_concurrent_jobs", 1);
  Result<int64_t> budget_mb = flags.GetInt("budget-mb", 0);
  Result<int64_t> incore_memory_mb = flags.GetInt("incore_memory_mb", 1024);
  Result<int64_t> sketch_size = flags.GetInt("sketch_size", 0);
  Result<int64_t> exact_polish_sweeps =
      flags.GetInt("exact_polish_sweeps", 2);
  Result<int64_t> checkpoint_every = flags.GetInt("checkpoint_every", 5);
  Result<int64_t> checkpoint_keep = flags.GetInt("checkpoint_keep", 2);
  Result<double> task_failure_prob =
      flags.GetDouble("task_failure_prob", 0.0);
  Result<int64_t> max_task_attempts = flags.GetInt("max_task_attempts", 4);
  Result<int64_t> max_node_attempts = flags.GetInt("max_node_attempts", 1);
  Result<int64_t> epoch_nnz = flags.GetInt("epoch_nnz", 0);
  Result<std::vector<int64_t>> core =
      flags.GetDims("core", std::vector<int64_t>(
                                static_cast<size_t>(tensor->order()), 10));
  for (const Status& s :
       {variant.status(), rank.status(), iterations.status(),
        tolerance.status(), seed.status(), machines.status(),
        threads.status(), max_concurrent_jobs.status(), budget_mb.status(),
        incore_memory_mb.status(), sketch_size.status(),
        exact_polish_sweeps.status(), checkpoint_every.status(),
        checkpoint_keep.status(), task_failure_prob.status(),
        max_task_attempts.status(), max_node_attempts.status(),
        epoch_nnz.status(), core.status()}) {
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }

  ClusterConfig config;
  config.num_machines = static_cast<int>(*machines);
  config.num_threads = static_cast<int>(*threads);
  config.max_concurrent_jobs = static_cast<int>(*max_concurrent_jobs);
  config.contraction = flags.GetString("contraction", "dataflow");
  config.incore_memory_mb = *incore_memory_mb;
  config.tucker_sketch = flags.GetString("tucker_sketch", "none");
  config.sketch_size = *sketch_size;
  config.exact_polish_sweeps = static_cast<int>(*exact_polish_sweeps);
  config.total_shuffle_memory_bytes =
      static_cast<uint64_t>(*budget_mb) << 20;
  config.task_failure_probability = *task_failure_prob;
  config.max_task_attempts = static_cast<int>(*max_task_attempts);
  config.max_node_attempts = static_cast<int>(*max_node_attempts);
  // Reject nonsense (zero bandwidths, empty slot pools, ...) up front: an
  // invalid config would otherwise surface as Inf/NaN simulated seconds
  // silently serialized into the stats JSON.
  Status config_status = config.Validate();
  if (!config_status.ok()) {
    std::fprintf(stderr, "%s\n", config_status.ToString().c_str());
    return 1;
  }
  Engine engine(config);

  Haten2Options options;
  options.variant = *variant;
  options.max_iterations = static_cast<int>(*iterations);
  options.tolerance = *tolerance;
  options.seed = static_cast<uint64_t>(*seed);

  const std::string method = flags.GetString("method", "parafac");
  const std::string output = flags.GetString("output", "");
  const std::string resume = flags.GetString("resume", "");
  const std::string stats_json = flags.GetString("stats_json", "");
  const std::string checkpoint_dir = flags.GetString("checkpoint_dir", "");
  const std::string ingest_log = flags.GetString("ingest_log", "");
  if (!ingest_log.empty() && method != "parafac" && method != "parafac-nn") {
    std::fprintf(stderr,
                 "--ingest_log needs --method=parafac or parafac-nn (the "
                 "incremental refit path is Kruskal-only)\n");
    return 1;
  }
  DecompositionTrace trace;
  if (!stats_json.empty()) options.trace = &trace;
  WallTimer timer;
  Status run_status = Status::OK();
  Status output_status = Status::OK();  // factor/core write, deferred
  bool has_fit = false;
  double fit = 0.0;
  int iterations_run = 0;
  RefitStatsReport refit_report;
  bool has_refit = false;

  CheckpointOptions checkpoint_options;
  if (!checkpoint_dir.empty()) {
    checkpoint_options.directory = checkpoint_dir;
    checkpoint_options.every_n_iterations =
        static_cast<int>(*checkpoint_every);
    checkpoint_options.keep_last = static_cast<int>(*checkpoint_keep);
    options.checkpoint = &checkpoint_options;
  }

  // Bare --resume (FlagParser reads it as "true"): continue mid-run from
  // the newest committed checkpoint. --resume=PREFIX stays the legacy
  // warm start from factors written with --output.
  KruskalModel resume_kruskal;
  TuckerModel resume_tucker;
  LoadedCheckpoint resume_checkpoint;
  // With --ingest_log, bare --resume means "warm-start the base fit from
  // the newest loadable checkpoint" (the merged tensor can't strict-resume
  // a checkpoint fingerprinted against a different shape/nnz), handled by
  // the refit session below.
  if (resume == "true" && ingest_log.empty()) {
    if (checkpoint_dir.empty()) {
      std::fprintf(stderr,
                   "bare --resume needs --checkpoint_dir=DIR to know where "
                   "the checkpoints live\n");
      return 1;
    }
    Result<LoadedCheckpoint> loaded = LoadLatestCheckpoint(checkpoint_dir);
    if (!loaded.ok()) {
      std::fprintf(stderr, "--resume: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    resume_checkpoint = std::move(loaded).value();
    options.resume_from = &resume_checkpoint;
    std::printf("resuming %s from checkpoint iteration %d under %s\n",
                resume_checkpoint.manifest.method.c_str(),
                resume_checkpoint.manifest.iteration, checkpoint_dir.c_str());
  } else if (!resume.empty()) {
    if (method == "parafac" || method == "parafac-nn") {
      Result<KruskalModel> loaded =
          LoadKruskalModel(resume, tensor->order());
      if (!loaded.ok()) {
        std::fprintf(stderr, "--resume: %s\n",
                     loaded.status().ToString().c_str());
        return 1;
      }
      resume_kruskal = std::move(loaded).value();
      options.initial_kruskal = &resume_kruskal;
      std::printf("resuming from %s (rank %lld)\n", resume.c_str(),
                  (long long)resume_kruskal.rank());
    } else {
      Result<TuckerModel> loaded = LoadTuckerModel(resume, tensor->order());
      if (!loaded.ok()) {
        std::fprintf(stderr, "--resume: %s\n",
                     loaded.status().ToString().c_str());
        return 1;
      }
      resume_tucker = std::move(loaded).value();
      options.initial_tucker = &resume_tucker;
      std::printf("resuming from %s\n", resume.c_str());
    }
  }

  if (!ingest_log.empty()) {
    options.nonnegative = method == "parafac-nn";
    Result<DeltaLog> log =
        LoadIngestLog(ingest_log, tensor->dims(), *epoch_nnz);
    if (!log.ok()) {
      std::fprintf(stderr, "--ingest_log: %s\n",
                   log.status().ToString().c_str());
      return 1;
    }
    std::printf("ingest log %s: %lld epochs, %lld stored entries\n",
                ingest_log.c_str(), (long long)log->num_epochs(),
                (long long)log->sealed_nnz());

    IncrementalRefitOptions refit_options;
    refit_options.als = options;
    refit_options.rank = *rank;
    IncrementalRefitSession session(&engine, std::move(*tensor),
                                    refit_options);
    if (resume == "true") {
      if (checkpoint_dir.empty()) {
        std::fprintf(stderr,
                     "bare --resume needs --checkpoint_dir=DIR to know where "
                     "the checkpoints live\n");
        return 1;
      }
      Status warm = session.WarmStartFromCheckpointDir(checkpoint_dir);
      if (!warm.ok()) {
        std::fprintf(stderr, "--resume: %s\n", warm.ToString().c_str());
        return 1;
      }
      std::printf("warm-starting the base fit from a checkpoint under %s\n",
                  checkpoint_dir.c_str());
    }
    run_status = session.FitBase();
    for (int64_t e = 0; run_status.ok() && e < log->num_epochs(); ++e) {
      run_status = session.RefitWithDelta(log->epoch(e));
    }
    if (run_status.ok()) {
      const RefitCounters& rc = session.counters();
      has_fit = true;
      fit = session.model().fit;
      iterations_run = static_cast<int>(rc.iterations);
      has_refit = true;
      refit_report.epochs = rc.epochs;
      refit_report.delta_nnz = rc.delta_nnz;
      refit_report.merge_seconds = rc.merge_seconds;
      refit_report.refit_seconds = rc.refit_seconds;
      refit_report.refit_iterations = rc.iterations;
      std::printf(
          "%s rank %lld: %lld epochs ingested (%lld delta nnz), "
          "final fit %.4f, %d ALS iterations, merge %s + refit %s "
          "(%s wall)\n",
          method.c_str(), (long long)*rank, (long long)rc.epochs,
          (long long)rc.delta_nnz, fit, iterations_run,
          HumanSeconds(rc.merge_seconds).c_str(),
          HumanSeconds(rc.refit_seconds).c_str(),
          HumanSeconds(timer.ElapsedSeconds()).c_str());
      if (!output.empty()) {
        output_status = SaveKruskalModel(session.model(), output);
        if (output_status.ok()) {
          std::printf("wrote %s.mode*.txt and %s.lambda.txt\n",
                      output.c_str(), output.c_str());
        }
      }
    }
  } else if (method == "parafac" || method == "parafac-nn") {
    options.nonnegative = method == "parafac-nn";
    Result<KruskalModel> model =
        Haten2ParafacAls(&engine, *tensor, *rank, options);
    run_status = model.status();
    if (model.ok()) {
      has_fit = true;
      fit = model->fit;
      iterations_run = model->iterations;
      std::printf("%s rank %lld: fit %.4f in %d iterations (%s wall)\n",
                  method.c_str(), (long long)*rank, model->fit,
                  model->iterations,
                  HumanSeconds(timer.ElapsedSeconds()).c_str());
      if (!output.empty()) {
        output_status = SaveKruskalModel(*model, output);
        if (output_status.ok()) {
          std::printf("wrote %s.mode*.txt and %s.lambda.txt\n",
                      output.c_str(), output.c_str());
        }
      }
    }
  } else if (method == "tucker" || method == "tucker-nn") {
    const bool sketched =
        method == "tucker" && config.tucker_sketch != "none";
    if (method == "tucker-nn" && config.tucker_sketch != "none") {
      std::fprintf(stderr,
                   "--tucker_sketch applies to --method=tucker only "
                   "(nonnegative Tucker has no sketched driver)\n");
      return 1;
    }
    Result<TuckerModel> model =
        method == "tucker"
            ? (sketched
                   ? Haten2SketchedTuckerAls(&engine, *tensor, *core, options)
                   : Haten2TuckerAls(&engine, *tensor, *core, options))
            : Haten2NonnegativeTuckerAls(&engine, *tensor, *core, options);
    run_status = model.status();
    if (model.ok()) {
      has_fit = true;
      fit = model->fit;
      iterations_run = model->iterations;
      const std::string method_label =
          sketched ? StrFormat("tucker[%s-sketch]",
                               config.tucker_sketch.c_str())
                   : method;
      std::printf("%s: fit %.4f, ||G|| %.4f in %d iterations (%s "
                  "wall)\n", method_label.c_str(),
                  model->fit, model->core.FrobeniusNorm(),
                  model->iterations,
                  HumanSeconds(timer.ElapsedSeconds()).c_str());
      if (!output.empty()) {
        output_status = SaveTuckerModel(*model, output);
        if (output_status.ok()) {
          std::printf("wrote %s.mode*.txt and %s.core.txt\n",
                      output.c_str(), output.c_str());
        }
      }
    }
  } else {
    std::fprintf(stderr, "unknown --method=%s\n%s", method.c_str(), kUsage);
    return 1;
  }

  const PipelineStats pipeline_snapshot = engine.PipelineSnapshot();

  // The JSON export runs before the exit-code handling so failed runs
  // (the paper's o.o.m. deaths in particular) keep their post-mortem stats.
  if (!stats_json.empty()) {
    StatsReport report;
    report.tool = "haten2_cli";
    report.method = method;
    report.variant = flags.GetString("variant", "dri");
    report.dataset = path;
    if (run_status.ok()) {
      report.status = "ok";
    } else if (run_status.IsResourceExhausted()) {
      report.status = "oom";
    } else if (run_status.IsAborted()) {
      report.status = "aborted";
    } else {
      report.status = "error";
    }
    report.wall_seconds = timer.ElapsedSeconds();
    report.has_fit = has_fit;
    report.fit = fit;
    report.iterations_run = iterations_run;
    report.cluster = &config;
    report.trace = &trace;
    report.pipeline = &pipeline_snapshot;
    if (has_refit) report.refit = &refit_report;
    Status json_status = WriteStatsJsonFile(report, stats_json);
    if (!json_status.ok()) {
      std::fprintf(stderr, "--stats_json: %s\n",
                   json_status.ToString().c_str());
      if (run_status.ok() && output_status.ok()) return 1;
    } else {
      std::printf("wrote %s\n", stats_json.c_str());
    }
  }

  if (!run_status.ok()) {
    std::fprintf(stderr, "%s\n", run_status.ToString().c_str());
    if (run_status.IsResourceExhausted()) {
      std::fprintf(stderr,
                   "the intermediate data exceeded the cluster budget; try "
                   "--variant=dri (least intermediate data) or raise "
                   "--budget-mb\n");
      return 2;
    }
    return 1;
  }
  if (!output_status.ok()) {
    std::fprintf(stderr, "%s\n", output_status.ToString().c_str());
    return 1;
  }

  if (flags.GetBool("stats", false)) {
    std::printf("\n%s", pipeline_snapshot.ToString().c_str());
    std::printf("simulated %d-machine time: %s\n", config.num_machines,
                HumanSeconds(CostModel(config).SimulatePipeline(
                                 pipeline_snapshot))
                    .c_str());
  }
  return 0;
}

}  // namespace
}  // namespace haten2

int main(int argc, char** argv) { return haten2::RealMain(argc, argv); }
