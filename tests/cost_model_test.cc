// Tests for the CostModel's event-driven slot simulation: bit-exact
// equivalence with the legacy greedy-LPT Makespan on uniform clusters,
// scheduling properties, the per-attempt retry accounting (CPU per attempt,
// spill disk once), deterministic jitter, and speculative execution.

#include "mapreduce/cost_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "mapreduce/engine.h"
#include "test_util.h"
#include "util/random.h"

namespace haten2 {
namespace {

std::vector<TaskWork> CpuTasks(const std::vector<double>& costs) {
  std::vector<TaskWork> tasks;
  tasks.reserve(costs.size());
  for (double c : costs) tasks.push_back(TaskWork{c, 0.0, 1});
  return tasks;
}

// ---------------------------------------------------------------------------
// Uniform cluster: the slot simulation IS the legacy LPT schedule.
// ---------------------------------------------------------------------------

TEST(CostModelSim, MatchesLptBitExactlyOnUniformClusters) {
  Rng rng(7);
  for (int machines : {1, 3, 7, 40}) {
    for (int slots : {1, 4}) {
      for (int trial = 0; trial < 10; ++trial) {
        std::vector<double> costs;
        int n = static_cast<int>(rng.UniformInt(int64_t{0}, int64_t{200}));
        for (int i = 0; i < n; ++i) costs.push_back(rng.Uniform(0.0, 50.0));

        ClusterConfig config;
        config.num_machines = machines;
        double sim = CostModel(config)
                         .SimulateTaskPhase(CpuTasks(costs), slots, 0)
                         .seconds;
        // Bit-identical, not approximately equal: uniform profiles with
        // speculation off must reproduce the pre-simulator numbers exactly.
        EXPECT_EQ(sim, CostModel::Makespan(costs, machines * slots))
            << machines << " machines x " << slots << " slots, " << n
            << " tasks";
      }
    }
  }
}

TEST(CostModelSim, SimulateJobMatchesLegacyFormulaOnUniformCluster) {
  // A job with spilled map tasks and loaded reduce partitions, no retries:
  // the simulation must equal the historical closed-form model bit-for-bit.
  JobStats job;
  job.map_output_bytes = 1 << 26;
  job.map_task_records = {100000, 250000, 50000, 900000, 1};
  job.map_task_spilled_bytes = {1u << 20, 0, 3u << 20, 1u << 19, 0};
  job.reduce_partition_records = {400000, 100, 800000};
  job.reduce_partition_bytes = {1u << 22, 1u << 10, 1u << 23};

  ClusterConfig config;  // paper defaults: 40 machines, 4+4 slots
  std::vector<double> map_costs;
  for (size_t t = 0; t < job.map_task_records.size(); ++t) {
    map_costs.push_back(
        static_cast<double>(job.map_task_records[t]) *
            config.map_seconds_per_record +
        static_cast<double>(job.map_task_spilled_bytes[t]) /
            config.disk_bytes_per_second);
  }
  std::vector<double> reduce_costs;
  for (size_t p = 0; p < job.reduce_partition_records.size(); ++p) {
    reduce_costs.push_back(
        static_cast<double>(job.reduce_partition_records[p]) *
            config.reduce_seconds_per_record +
        static_cast<double>(job.reduce_partition_bytes[p]) /
            config.disk_bytes_per_second);
  }
  double legacy =
      config.job_startup_seconds +
      CostModel::Makespan(map_costs, config.TotalMapSlots()) +
      static_cast<double>(job.map_output_bytes) /
          (config.network_bytes_per_second *
           static_cast<double>(config.num_machines)) +
      CostModel::Makespan(reduce_costs, config.TotalReduceSlots());
  EXPECT_EQ(CostModel(config).SimulateJob(job), legacy);
}

// ---------------------------------------------------------------------------
// Scheduling properties.
// ---------------------------------------------------------------------------

TEST(CostModelProperty, MakespanBounds) {
  Rng rng(21);
  ClusterConfig config;
  config.num_machines = 5;
  CostModel model(config);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> costs;
    int n = static_cast<int>(rng.UniformInt(int64_t{1}, int64_t{100}));
    for (int i = 0; i < n; ++i) costs.push_back(rng.Uniform(0.0, 10.0));
    int slots = 5 * 3;
    double sim = model.SimulateTaskPhase(CpuTasks(costs), 3, 0).seconds;
    double max_task = *std::max_element(costs.begin(), costs.end());
    double total = std::accumulate(costs.begin(), costs.end(), 0.0);
    EXPECT_GE(sim, max_task - 1e-12);          // no task splits
    EXPECT_GE(sim, total / slots - 1e-9);      // perfect balance at best
    EXPECT_LE(sim, total + 1e-9);              // never worse than serial
  }
}

TEST(CostModelProperty, UniformTasksScheduleExactly) {
  // N identical tasks of cost c on S slots finish in ceil(N/S) waves.
  ClusterConfig config;
  config.num_machines = 4;
  CostModel model(config);
  const double c = 2.5;
  for (int n : {1, 4, 8, 9, 23}) {
    std::vector<double> costs(static_cast<size_t>(n), c);
    double sim = model.SimulateTaskPhase(CpuTasks(costs), 2, 0).seconds;
    double waves = static_cast<double>((n + 7) / 8);  // S = 4 machines x 2
    EXPECT_DOUBLE_EQ(sim, waves * c) << n << " tasks";
  }
}

TEST(CostModelProperty, SlowerMachinesStretchTheSchedule) {
  ClusterConfig uniform;
  uniform.num_machines = 4;
  ClusterConfig hetero = uniform;
  hetero.machine_profiles = ParseMachineProfiles("1.0x3,0.25").value();
  std::vector<double> costs(16, 1.0);
  double t_uniform =
      CostModel(uniform).SimulateTaskPhase(CpuTasks(costs), 1, 0).seconds;
  EXPECT_DOUBLE_EQ(t_uniform, 4.0);  // 16 tasks / 4 slots, unit cost
  double t_hetero =
      CostModel(hetero).SimulateTaskPhase(CpuTasks(costs), 1, 0).seconds;
  EXPECT_GT(t_hetero, t_uniform);
  // The quarter-speed machine finishes its first task at t=4, exactly when
  // the fast machines finish their fourth. The dispatcher has no
  // clairvoyance (like a real JobTracker serving heartbeats): the slow
  // slot's completion is served first, tasks are still pending, so it is
  // handed another 4 s task and strands the schedule at t=8 while the fast
  // machines idle from t=5.
  EXPECT_DOUBLE_EQ(t_hetero, 8.0);
  // Speculation is precisely the cure for that stranding: the re-stranded
  // task gets a backup on a fast slot freed in the same instant, and the
  // backup wins (4 s on the slow machine vs 1 s on a fast one).
  hetero.speculative_execution = true;
  PhaseSim spec = CostModel(hetero).SimulateTaskPhase(CpuTasks(costs), 1, 0);
  EXPECT_DOUBLE_EQ(spec.seconds, 5.0);
  EXPECT_EQ(spec.speculation.speculated, 1);
  EXPECT_EQ(spec.speculation.won, 1);
  // The killed primary ran from t=4 to t=5 on the slow machine.
  EXPECT_DOUBLE_EQ(spec.speculation.wasted_seconds, 1.0);
}

// ---------------------------------------------------------------------------
// Retry accounting: re-execution CPU per attempt, spill disk once.
// ---------------------------------------------------------------------------

TEST(CostModelRetry, ChargesCpuPerAttemptButSpillDiskOnce) {
  ClusterConfig config;
  config.num_machines = 1;
  config.map_slots_per_machine = 1;
  config.job_startup_seconds = 0.0;
  // One map task: 1.0 s of CPU (1M records at 1 us) and 1.0 s of spill disk
  // (200 MB at 200 MB/s).
  JobStats job;
  job.map_task_records = {1000000};
  job.map_task_spilled_bytes = {200000000};
  job.map_task_attempts = {3};
  double sim = CostModel(config).SimulateJob(job);
  // 3 attempts x 1.0 s CPU + 1.0 s disk — not (1.0 + 1.0) * 3: the failed
  // attempts never reached the spill path.
  EXPECT_DOUBLE_EQ(sim, 4.0);
}

TEST(CostModelRetry, SpillDiskCostInvariantUnderAttemptCount) {
  // Pure-disk tasks (zero records): however many times failure injection
  // would have re-run them, the simulated cost must not move at all.
  ClusterConfig config;
  JobStats job;
  job.map_task_records = {0, 0, 0};
  job.map_task_spilled_bytes = {1u << 24, 1u << 22, 1u << 26};
  job.map_task_attempts = {1, 1, 1};
  double once = CostModel(config).SimulateJob(job);
  job.map_task_attempts = {4, 2, 3};
  EXPECT_EQ(CostModel(config).SimulateJob(job), once);
}

TEST(CostModelRetry, SpillDiskCostInvariantUnderFailureProbability) {
  // End-to-end: the same spilling workload run with and without failure
  // injection yields identical simulated disk cost. Simulating with zero
  // per-record CPU isolates the disk term: retries may only ever move CPU.
  const std::string spill_dir = testing::PerTestDir();
  auto run = [&](double failure_prob) {
    ClusterConfig config = ClusterConfig::ForTesting();
    config.spill_directory = spill_dir;
    config.spill_threshold_records = 16;
    config.task_failure_probability = failure_prob;
    config.max_task_attempts = 10;  // keep the flaky run from aborting
    Engine engine(config);
    auto result = engine.Run<int64_t, int64_t, int64_t, int64_t>(
        "spilling", 4096,
        [](int64_t i, ShuffleEmitter<int64_t, int64_t>* em) {
          em->Emit(i % 64, i);
        },
        [](const int64_t& k, std::vector<int64_t>& vs,
           OutputEmitter<int64_t, int64_t>* out) {
          out->Emit(k, static_cast<int64_t>(vs.size()));
        });
    EXPECT_OK(result.status());
    return engine.pipeline().jobs[0];
  };
  JobStats clean = run(0.0);
  JobStats flaky = run(0.5);
  ASSERT_GT(flaky.map_task_retries, 0) << "injection never fired";
  ASSERT_GT(clean.spilled_bytes, 0u) << "nothing spilled";

  ClusterConfig sim_config;
  sim_config.map_seconds_per_record = 0.0;
  sim_config.reduce_seconds_per_record = 0.0;
  CostModel model(sim_config);
  EXPECT_EQ(model.SimulateJob(clean), model.SimulateJob(flaky));
  // With CPU costs on, the flaky run is strictly slower (re-executed CPU).
  ClusterConfig cpu_config;
  EXPECT_GT(CostModel(cpu_config).SimulateJob(flaky),
            CostModel(cpu_config).SimulateJob(clean));
}

// ---------------------------------------------------------------------------
// Jitter determinism.
// ---------------------------------------------------------------------------

TEST(CostModelDeterminism, SameJitterSeedReproducesBitIdenticalSchedules) {
  ClusterConfig config;
  config.num_machines = 8;
  config.machine_profiles = ParseMachineProfiles("1.0x6,0.5x2").value();
  config.straggler_jitter = 0.5;
  config.straggler_jitter_seed = 42;
  config.speculative_execution = true;
  Rng rng(3);
  std::vector<double> costs;
  for (int i = 0; i < 64; ++i) costs.push_back(rng.Uniform(1.0, 9.0));

  PhaseSim a = CostModel(config).SimulateTaskPhase(CpuTasks(costs), 2, 17);
  PhaseSim b = CostModel(config).SimulateTaskPhase(CpuTasks(costs), 2, 17);
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.speculation.speculated, b.speculation.speculated);
  EXPECT_EQ(a.speculation.won, b.speculation.won);
  EXPECT_EQ(a.speculation.wasted_seconds, b.speculation.wasted_seconds);

  config.straggler_jitter_seed = 43;
  PhaseSim c = CostModel(config).SimulateTaskPhase(CpuTasks(costs), 2, 17);
  EXPECT_NE(a.seconds, c.seconds) << "different seed, same schedule";
}

TEST(CostModelDeterminism, ZeroJitterIsExact) {
  // jitter = 0 multiplies durations by exactly 1.0 — no drift at all.
  ClusterConfig plain;
  plain.num_machines = 3;
  ClusterConfig seeded = plain;
  seeded.straggler_jitter = 0.0;
  seeded.straggler_jitter_seed = 999;  // ignored when jitter is off
  std::vector<double> costs = {5.0, 3.0, 2.0, 2.0, 1.0};
  EXPECT_EQ(
      CostModel(plain).SimulateTaskPhase(CpuTasks(costs), 1, 5).seconds,
      CostModel(seeded).SimulateTaskPhase(CpuTasks(costs), 1, 5).seconds);
}

// ---------------------------------------------------------------------------
// Speculative execution.
// ---------------------------------------------------------------------------

// Two machines, one slot each: a fast reference machine and a 10x-slow
// straggler host. Task costs {4, 3, 3, 3}: the longest task takes the fast
// slot, one of the 3s lands on the slow machine (30 s). Once the fast slot
// drains the queue (t = 10, median finished duration 3), the straggler's
// remaining 20 s exceeds 1.5 x 3, so a backup launches on the fast slot and
// wins at t = 13; the 13 s the doomed primary ran are the waste.
TEST(SpeculationTest, BackupWinsAndCutsTheMakespan) {
  ClusterConfig config;
  config.num_machines = 2;
  config.map_slots_per_machine = 1;
  config.machine_profiles = {{1.0, 1.0}, {0.1, 1.0}};
  config.speculation_slowstart = 1.5;
  std::vector<TaskWork> tasks = CpuTasks({4.0, 3.0, 3.0, 3.0});

  config.speculative_execution = false;
  PhaseSim off = CostModel(config).SimulateTaskPhase(tasks, 1, 0);
  EXPECT_DOUBLE_EQ(off.seconds, 30.0);
  EXPECT_EQ(off.speculation.speculated, 0);

  config.speculative_execution = true;
  PhaseSim on = CostModel(config).SimulateTaskPhase(tasks, 1, 0);
  EXPECT_DOUBLE_EQ(on.seconds, 13.0);
  EXPECT_EQ(on.speculation.speculated, 1);
  EXPECT_EQ(on.speculation.won, 1);
  EXPECT_DOUBLE_EQ(on.speculation.wasted_seconds, 13.0);
}

// Half-speed machine hosts the short tasks; the long task (20 s) runs on
// the fast slot. At t = 8 the slow slot is idle, the median finished
// duration is 4, and the long task still has 12 s left — a backup launches
// on the slow machine (40 s there) and loses to the primary at t = 20. The
// makespan is unchanged; the 12 s of backup time are counted as waste.
TEST(SpeculationTest, LosingBackupWastesTimeButNeverHurtsTheMakespan) {
  ClusterConfig config;
  config.num_machines = 2;
  config.map_slots_per_machine = 1;
  config.machine_profiles = {{0.5, 1.0}, {1.0, 1.0}};
  config.speculation_slowstart = 1.5;
  config.speculative_execution = true;
  std::vector<TaskWork> tasks = CpuTasks({20.0, 2.0, 2.0});
  PhaseSim sim = CostModel(config).SimulateTaskPhase(tasks, 1, 0);
  EXPECT_DOUBLE_EQ(sim.seconds, 20.0);
  EXPECT_EQ(sim.speculation.speculated, 1);
  EXPECT_EQ(sim.speculation.won, 0);
  EXPECT_DOUBLE_EQ(sim.speculation.wasted_seconds, 12.0);
}

TEST(SpeculationTest, NeverIncreasesTheMakespan) {
  // Backups only ever occupy otherwise-idle slots, so across random
  // workloads, profiles, and jitter, speculation can only help.
  Rng rng(11);
  for (int trial = 0; trial < 25; ++trial) {
    ClusterConfig config;
    config.num_machines = static_cast<int>(rng.UniformInt(int64_t{2}, 8));
    config.machine_profiles =
        ParseMachineProfiles("1.0x3,0.25").value();
    config.straggler_jitter = rng.Uniform(0.0, 1.0);
    config.straggler_jitter_seed = rng.UniformInt(uint64_t{1} << 32);
    config.speculation_slowstart = rng.Uniform(1.0, 3.0);
    std::vector<double> costs;
    int n = static_cast<int>(rng.UniformInt(int64_t{1}, int64_t{60}));
    for (int i = 0; i < n; ++i) costs.push_back(rng.Uniform(0.5, 20.0));

    config.speculative_execution = false;
    double off = CostModel(config).SimulateTaskPhase(CpuTasks(costs), 2, 9)
                     .seconds;
    config.speculative_execution = true;
    double on = CostModel(config).SimulateTaskPhase(CpuTasks(costs), 2, 9)
                    .seconds;
    EXPECT_LE(on, off) << "trial " << trial;
  }
}

TEST(SpeculationTest, UniformClusterWithoutJitterSpawnsNoBackups) {
  // Every slot is equal and durations are exact, so no running task can
  // exceed the slowstart threshold of 1.5 x the median by construction of
  // LPT order — speculation stays silent and the makespan is the LPT one.
  ClusterConfig config;
  config.num_machines = 4;
  config.speculative_execution = true;
  std::vector<double> costs = {3.0, 3.0, 2.0, 2.0, 2.0, 1.0, 1.0, 1.0};
  PhaseSim sim = CostModel(config).SimulateTaskPhase(CpuTasks(costs), 1, 0);
  EXPECT_EQ(sim.seconds, CostModel::Makespan(costs, 4));
  EXPECT_EQ(sim.speculation.speculated, 0);
}

TEST(SpeculationTest, CountersFlowThroughJobAndPipeline) {
  ClusterConfig config;
  config.num_machines = 2;
  config.map_slots_per_machine = 1;
  config.reduce_slots_per_machine = 1;
  config.job_startup_seconds = 0.0;
  config.machine_profiles = {{1.0, 1.0}, {0.1, 1.0}};
  config.speculative_execution = true;
  // The exact backup-wins scenario, expressed as map-task records (1M
  // records = 1 s) so it flows through SimulateJobDetailed.
  JobStats job;
  job.map_task_records = {4000000, 3000000, 3000000, 3000000};
  JobSim sim = CostModel(config).SimulateJobDetailed(job);
  EXPECT_DOUBLE_EQ(sim.seconds, 13.0);
  EXPECT_EQ(sim.speculation.speculated, 1);
  EXPECT_EQ(sim.speculation.won, 1);

  PipelineStats pipeline;
  pipeline.jobs.push_back(job);
  pipeline.jobs.push_back(job);
  PipelineSim total = CostModel(config).SimulatePipelineDetailed(pipeline);
  EXPECT_DOUBLE_EQ(total.seconds, 26.0);
  EXPECT_EQ(total.speculation.speculated, 2);
  EXPECT_EQ(total.speculation.won, 2);
  EXPECT_DOUBLE_EQ(total.speculation.wasted_seconds, 26.0);
}

}  // namespace
}  // namespace haten2
