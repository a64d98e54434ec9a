// Tests for the subprocess backend's worker pool: gang spawn/echo over the
// wire channels, restart accounting (abnormal death vs clean exit vs
// deliberate kill vs a loss the coordinator observed), and the one-shot
// worker-kill injection latch.

#include "distributed/worker_pool.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <memory>
#include <string>

#include "distributed/wire.h"

namespace haten2 {
namespace distributed {
namespace {

TEST(WorkerPoolTest, ClampsToAtLeastOneWorker) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.num_workers(), 1);
  WorkerPool pool2(-3);
  EXPECT_EQ(pool2.num_workers(), 1);
}

TEST(WorkerPoolTest, GangEchoesFramesAndCountsBytes) {
  WorkerPool pool(2);
  Status s = pool.SpawnGang([](int fd, int worker) {
    WireChannel channel(fd, "coordinator");
    WireFrame frame;
    Status rs = channel.ReadFrame(30.0, &frame);
    if (!rs.ok()) return 1;
    frame.a += 1;
    frame.worker = worker;
    if (!channel.WriteFrame(frame).ok()) return 2;
    return 0;
  });
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_TRUE(pool.gang_active());

  for (int w = 0; w < pool.num_workers(); ++w) {
    WireFrame frame;
    frame.type = FrameType::kAssignment;
    frame.worker = w;
    frame.a = 10 + w;
    ASSERT_TRUE(pool.channel(w)->WriteFrame(frame).ok());
  }
  for (int w = 0; w < pool.num_workers(); ++w) {
    WireFrame echo;
    Status rs = pool.channel(w)->ReadFrame(30.0, &echo);
    ASSERT_TRUE(rs.ok()) << rs.ToString();
    EXPECT_EQ(echo.a, 11 + w);
    EXPECT_EQ(echo.worker, w);
  }
  pool.NoteTasksCompleted(0, 4);
  pool.FinishGang(/*kill=*/false);
  EXPECT_FALSE(pool.gang_active());

  const std::vector<WorkerStats> stats = pool.StatsSnapshot();
  ASSERT_EQ(stats.size(), 2u);
  for (const WorkerStats& ws : stats) {
    EXPECT_GT(ws.wire_bytes_sent, 0u);
    EXPECT_GT(ws.wire_bytes_received, 0u);
    EXPECT_EQ(ws.restarts, 0);
  }
  EXPECT_EQ(stats[0].tasks, 4);
  EXPECT_EQ(stats[1].tasks, 0);
}

TEST(WorkerPoolTest, AbnormalExitCountsAsRestartOnNextSpawn) {
  WorkerPool pool(2);
  // First gang: every child exits nonzero (abnormal).
  ASSERT_TRUE(pool.SpawnGang([](int, int) { return 5; }).ok());
  pool.FinishGang(/*kill=*/false);

  std::vector<WorkerStats> stats = pool.StatsSnapshot();
  EXPECT_EQ(stats[0].restarts, 0);  // not counted until the slot respawns

  // Second gang respawns both slots: each counts one restart.
  ASSERT_TRUE(pool.SpawnGang([](int, int) { return 0; }).ok());
  pool.FinishGang(/*kill=*/false);
  stats = pool.StatsSnapshot();
  EXPECT_EQ(stats[0].restarts, 1);
  EXPECT_EQ(stats[1].restarts, 1);

  // Third gang after clean exits: no further restarts.
  ASSERT_TRUE(pool.SpawnGang([](int, int) { return 0; }).ok());
  pool.FinishGang(/*kill=*/false);
  stats = pool.StatsSnapshot();
  EXPECT_EQ(stats[0].restarts, 1);
  EXPECT_EQ(stats[1].restarts, 1);
}

TEST(WorkerPoolTest, DeliberateKillIsNotCountedAsRestart) {
  WorkerPool pool(2);
  // Children block waiting for a frame that never comes; FinishGang(true)
  // SIGKILLs them, which is deliberate termination, not an abnormal death.
  ASSERT_TRUE(pool.SpawnGang([](int fd, int) {
                    WireChannel channel(fd, "coordinator");
                    WireFrame frame;
                    (void)channel.ReadFrame(/*timeout_seconds=*/0.0, &frame);
                    return 0;
                  })
                  .ok());
  pool.FinishGang(/*kill=*/true);

  ASSERT_TRUE(pool.SpawnGang([](int, int) { return 0; }).ok());
  pool.FinishGang(/*kill=*/false);
  const std::vector<WorkerStats> stats = pool.StatsSnapshot();
  EXPECT_EQ(stats[0].restarts, 0);
  EXPECT_EQ(stats[1].restarts, 0);
}

TEST(WorkerPoolTest, LostWorkerCountsAsRestartWhileStillExiting) {
  WorkerPool pool(2);
  // Worker 0 drops its channel but is still alive when the coordinator,
  // having read EOF, reaps the gang: the reap SIGKILLs it, which on its own
  // looks like a deliberate kill. The loss the coordinator observed must
  // count anyway. Worker 1 only ever sees the deliberate kill.
  ASSERT_TRUE(pool.SpawnGang([](int fd, int worker) {
                    if (worker == 0) {
                      ::close(fd);
                      ::sleep(10);  // SIGKILLed long before this returns
                      return 0;
                    }
                    WireChannel channel(fd, "coordinator");
                    WireFrame frame;
                    (void)channel.ReadFrame(/*timeout_seconds=*/0.0, &frame);
                    return 0;
                  })
                  .ok());
  WireFrame frame;
  ASSERT_FALSE(pool.channel(0)->ReadFrame(30.0, &frame).ok());
  pool.MarkLost(0);
  pool.FinishGang(/*kill=*/true);

  ASSERT_TRUE(pool.SpawnGang([](int, int) { return 0; }).ok());
  pool.FinishGang(/*kill=*/false);
  const std::vector<WorkerStats> stats = pool.StatsSnapshot();
  EXPECT_EQ(stats[0].restarts, 1);
  EXPECT_EQ(stats[1].restarts, 0);
}

TEST(WorkerPoolTest, SpawnFailsWhileGangActive) {
  WorkerPool pool(1);
  ASSERT_TRUE(pool.SpawnGang([](int fd, int) {
                    WireChannel channel(fd, "coordinator");
                    WireFrame frame;
                    (void)channel.ReadFrame(/*timeout_seconds=*/0.0, &frame);
                    return 0;
                  })
                  .ok());
  Status s = pool.SpawnGang([](int, int) { return 0; });
  EXPECT_FALSE(s.ok());
  pool.FinishGang(/*kill=*/true);
}

TEST(WorkerPoolTest, KillInjectionFiresOnceForCumulativeThreshold) {
  WorkerPool pool(2);
  // knob = 5, assignments of 3 tasks each: the first call stays under the
  // threshold, the second crosses it (die after 5 - 3 = 2 of its tasks),
  // and everything after is latched off.
  EXPECT_EQ(pool.PlanKillInjection(5, 3), 0);
  EXPECT_EQ(pool.PlanKillInjection(5, 3), 2);
  EXPECT_EQ(pool.PlanKillInjection(5, 3), 0);
  EXPECT_EQ(pool.PlanKillInjection(5, 100), 0);
}

TEST(WorkerPoolTest, KillInjectionImmediateAndDisabled) {
  WorkerPool pool(1);
  // knob <= 0 disables entirely.
  EXPECT_EQ(pool.PlanKillInjection(0, 10), 0);
  EXPECT_EQ(pool.PlanKillInjection(-1, 10), 0);
  // knob within the very first assignment fires on it.
  EXPECT_EQ(pool.PlanKillInjection(2, 10), 2);
  EXPECT_EQ(pool.PlanKillInjection(2, 10), 0);
}

}  // namespace
}  // namespace distributed
}  // namespace haten2
