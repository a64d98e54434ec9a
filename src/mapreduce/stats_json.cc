#include "mapreduce/stats_json.h"

namespace haten2 {

namespace {

void SkewToJson(const TaskSkew& skew, JsonWriter* w) {
  w->BeginObject()
      .Key("count")
      .Value(skew.tasks)
      .Key("min_records")
      .Value(skew.min_records)
      .Key("p50_records")
      .Value(skew.p50_records)
      .Key("max_records")
      .Value(skew.max_records)
      .EndObject();
}

}  // namespace

void JobStatsToJson(const JobStats& job, const CostModel* cost,
                    JsonWriter* w) {
  w->BeginObject();
  w->Key("name").Value(job.name);
  w->Key("job_id").Value(job.job_id);
  w->Key("plan_id").Value(job.plan_id);
  w->Key("status").Value(job.failed() ? std::string_view(job.failure)
                                      : std::string_view("ok"));
  w->Key("wall_seconds").Value(job.wall_seconds);
  w->Key("phases")
      .BeginObject()
      .Key("map_seconds")
      .Value(job.phases.map_seconds)
      .Key("combine_seconds")
      .Value(job.phases.combine_seconds)
      .Key("shuffle_seconds")
      .Value(job.phases.shuffle_seconds)
      .Key("reduce_seconds")
      .Value(job.phases.reduce_seconds)
      .EndObject();
  w->Key("map")
      .BeginObject()
      .Key("input_records")
      .Value(job.map_input_records)
      .Key("pre_combine_records")
      .Value(job.pre_combine_records)
      .Key("output_records")
      .Value(job.map_output_records)
      .Key("output_bytes")
      .Value(job.map_output_bytes)
      .Key("task_retries")
      .Value(job.map_task_retries)
      .Key("tasks");
  SkewToJson(job.MapTaskSkew(), w);
  w->EndObject();
  uint64_t reduce_bytes = 0;
  for (uint64_t b : job.reduce_partition_bytes) reduce_bytes += b;
  w->Key("reduce")
      .BeginObject()
      .Key("input_groups")
      .Value(job.reduce_input_groups)
      .Key("output_records")
      .Value(job.reduce_output_records)
      .Key("input_bytes")
      .Value(reduce_bytes)
      .Key("partitions");
  SkewToJson(job.ReducePartitionSkew(), w);
  w->EndObject();
  if (cost != nullptr) {
    w->Key("simulated_seconds").Value(cost->SimulateJob(job));
  }
  w->EndObject();
}

void PipelineStatsToJson(const PipelineStats& pipeline, const CostModel* cost,
                         JsonWriter* w) {
  w->BeginObject();
  w->Key("num_jobs").Value(pipeline.NumJobs());
  w->Key("failed_jobs").Value(pipeline.NumFailedJobs());
  w->Key("total_wall_seconds").Value(pipeline.TotalWallSeconds());
  w->Key("max_intermediate_records").Value(pipeline.MaxIntermediateRecords());
  w->Key("max_intermediate_bytes").Value(pipeline.MaxIntermediateBytes());
  w->Key("total_intermediate_records")
      .Value(pipeline.TotalIntermediateRecords());
  w->Key("total_intermediate_bytes").Value(pipeline.TotalIntermediateBytes());
  w->Key("total_map_task_retries").Value(pipeline.TotalMapTaskRetries());
  w->Key("scheduled_concurrency").Value(pipeline.MaxScheduledConcurrency());
  w->Key("critical_path_seconds").Value(pipeline.TotalCriticalPathSeconds());
  w->Key("critical_path_with_backoff_seconds")
      .Value(pipeline.TotalCriticalPathWithBackoffSeconds());
  w->Key("total_node_seconds").Value(pipeline.TotalPlanNodeSeconds());
  w->Key("node_retries").Value(pipeline.TotalNodeRetries());
  w->Key("node_backoff_seconds").Value(pipeline.TotalNodeBackoffSeconds());
  w->Key("invariant_cache_hits").Value(pipeline.invariant_cache_hits);
  w->Key("invariant_cache_misses").Value(pipeline.invariant_cache_misses);
  w->Key("incore_nodes").Value(pipeline.IncoreNodes());
  w->Key("dataflow_nodes").Value(pipeline.DataflowNodes());
  if (cost != nullptr) {
    w->Key("simulated_seconds").Value(cost->SimulatePipeline(pipeline));
  }
  w->Key("jobs").BeginArray();
  for (const JobStats& job : pipeline.jobs) JobStatsToJson(job, cost, w);
  w->EndArray();
  w->Key("plans").BeginArray();
  for (const PlanStats& plan : pipeline.plans) PlanStatsToJson(plan, w);
  w->EndArray();
  w->EndObject();
}

void PlanStatsToJson(const PlanStats& plan, JsonWriter* w) {
  w->BeginObject();
  w->Key("plan_id").Value(plan.plan_id);
  w->Key("name").Value(plan.name);
  w->Key("status").Value(plan.failed() ? "failed" : "ok");
  w->Key("concurrency_limit").Value(plan.concurrency_limit);
  w->Key("max_observed_concurrency").Value(plan.max_observed_concurrency);
  w->Key("wall_seconds").Value(plan.wall_seconds);
  w->Key("critical_path_seconds").Value(plan.critical_path_seconds);
  w->Key("critical_path_with_backoff_seconds")
      .Value(plan.critical_path_with_backoff_seconds);
  w->Key("total_node_seconds").Value(plan.total_node_seconds);
  w->Key("total_node_retries").Value(plan.total_node_retries);
  w->Key("total_backoff_seconds").Value(plan.total_backoff_seconds);
  w->Key("nodes").BeginArray();
  for (const PlanNodeStats& node : plan.nodes) {
    w->BeginObject();
    w->Key("label").Value(node.label);
    w->Key("status").Value(node.status);
    w->Key("seconds").Value(node.seconds);
    w->Key("attempts").Value(node.attempts);
    w->Key("backoff_seconds").Value(node.backoff_seconds);
    // v7: contraction nodes carry their strategy; in-core nodes also split
    // their time into layout build vs. kernel evaluation.
    if (!node.contraction_strategy.empty()) {
      w->Key("contraction_strategy").Value(node.contraction_strategy);
    }
    if (node.contraction_strategy == "incore") {
      w->Key("layout_build_seconds").Value(node.layout_build_seconds);
      w->Key("evaluate_seconds").Value(node.evaluate_seconds);
    }
    w->Key("deps").BeginArray();
    for (int d : node.deps) w->Value(d);
    w->EndArray();
    w->Key("job_ids").BeginArray();
    for (int64_t id : node.job_ids) w->Value(id);
    w->EndArray();
    w->EndObject();
  }
  w->EndArray();
  w->EndObject();
}

void IterationStatsToJson(const IterationStats& iteration,
                          const CostModel* cost, JsonWriter* w) {
  w->BeginObject();
  w->Key("iteration").Value(iteration.iteration);
  w->Key("wall_seconds").Value(iteration.wall_seconds);
  if (iteration.has_fit) w->Key("fit").Value(iteration.fit);
  if (iteration.has_core_norm) {
    w->Key("core_norm").Value(iteration.core_norm);
  }
  if (!iteration.lambda.empty()) {
    w->Key("lambda").BeginArray();
    for (double l : iteration.lambda) w->Value(l);
    w->EndArray();
  }
  // v8: sketched-Tucker sweeps carry their driver-side sketch cost, the
  // sketch width they contracted with (0 on exact sweeps), and whether the
  // sweep was an exact polish sweep. Absent for every other driver.
  if (iteration.has_sketch) {
    w->Key("sketch")
        .BeginObject()
        .Key("seconds")
        .Value(iteration.sketch_seconds)
        .Key("dims")
        .Value(iteration.sketch_dims)
        .Key("polish")
        .Value(iteration.sketch_polish)
        .EndObject();
  }
  w->Key("pipeline");
  PipelineStatsToJson(iteration.pipeline, cost, w);
  w->EndObject();
}

void ClusterConfigToJson(const ClusterConfig& config, JsonWriter* w) {
  w->BeginObject()
      .Key("num_machines")
      .Value(config.num_machines)
      .Key("map_slots_per_machine")
      .Value(config.map_slots_per_machine)
      .Key("reduce_slots_per_machine")
      .Value(config.reduce_slots_per_machine)
      .Key("num_threads")
      .Value(config.num_threads)
      .Key("max_concurrent_jobs")
      .Value(config.max_concurrent_jobs)
      .Key("contraction")
      .Value(config.contraction)
      .Key("incore_memory_mb")
      .Value(config.incore_memory_mb)
      .Key("tucker_sketch")
      .Value(config.tucker_sketch)
      .Key("sketch_size")
      .Value(config.sketch_size)
      .Key("exact_polish_sweeps")
      .Value(config.exact_polish_sweeps)
      .Key("job_startup_seconds")
      .Value(config.job_startup_seconds)
      .Key("total_shuffle_memory_bytes")
      .Value(config.total_shuffle_memory_bytes)
      .Key("task_failure_probability")
      .Value(config.task_failure_probability)
      .Key("max_task_attempts")
      .Value(config.max_task_attempts)
      .Key("max_node_attempts")
      .Value(config.max_node_attempts)
      .EndObject();
}

std::string StatsReportToJson(const StatsReport& report) {
  CostModel cost_model(report.cluster != nullptr ? *report.cluster
                                                 : ClusterConfig());
  const CostModel* cost = report.cluster != nullptr ? &cost_model : nullptr;
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").Value("haten2-stats-v13");
  if (!report.tool.empty()) w.Key("tool").Value(report.tool);
  if (!report.method.empty()) w.Key("method").Value(report.method);
  if (!report.variant.empty()) w.Key("variant").Value(report.variant);
  if (!report.dataset.empty()) w.Key("dataset").Value(report.dataset);
  w.Key("status").Value(report.status);
  w.Key("wall_seconds").Value(report.wall_seconds);
  if (report.has_fit) w.Key("fit").Value(report.fit);
  if (report.iterations_run > 0) {
    w.Key("iterations_run").Value(report.iterations_run);
  }
  if (report.cluster != nullptr) {
    w.Key("cluster");
    ClusterConfigToJson(*report.cluster, &w);
  }
  if (report.trace != nullptr) {
    w.Key("iterations").BeginArray();
    for (const IterationStats& it : report.trace->iterations) {
      IterationStatsToJson(it, cost, &w);
    }
    w.EndArray();
  }
  if (report.pipeline != nullptr) {
    w.Key("pipeline");
    PipelineStatsToJson(*report.pipeline, cost, &w);
  }
  if (report.refit != nullptr) {
    const RefitStatsReport& r = *report.refit;
    w.Key("refit")
        .BeginObject()
        .Key("epochs")
        .Value(r.epochs)
        .Key("delta_nnz")
        .Value(r.delta_nnz)
        .Key("merge_seconds")
        .Value(r.merge_seconds)
        .Key("refit_seconds")
        .Value(r.refit_seconds)
        .Key("refit_iterations")
        .Value(r.refit_iterations)
        .Key("epochs_behind")
        .Value(r.epochs_behind)
        .Key("max_epochs_behind")
        .Value(r.max_epochs_behind)
        .EndObject();
  }
  w.EndObject();
  return w.str();
}

Status WriteStatsJsonFile(const StatsReport& report,
                          const std::string& path) {
  std::string json = StatsReportToJson(report);
  json.push_back('\n');
  return WriteTextFile(path, json);
}

}  // namespace haten2
