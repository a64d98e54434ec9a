// Unit tests for the util module: Status/Result, string helpers, Rng,
// ThreadPool and MemoryTracker.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>

#include "test_util.h"
#include "util/memory_tracker.h"
#include "util/random.h"
#include "util/result.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace haten2 {
namespace {

TEST(StatusTest, OkAndErrorStates) {
  Status ok = Status::OK();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "OK");

  Status err = Status::InvalidArgument("bad rank");
  EXPECT_FALSE(err.ok());
  EXPECT_TRUE(err.IsInvalidArgument());
  EXPECT_EQ(err.message(), "bad rank");
  EXPECT_EQ(err.ToString(), "InvalidArgument: bad rank");

  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::Unimplemented("x").IsUnimplemented());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
}

TEST(StatusTest, EqualityAndCodeNames) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_EQ(StatusCodeToString(StatusCode::kResourceExhausted),
            "ResourceExhausted");
  EXPECT_EQ(StatusCodeToString(StatusCode::kOk), "OK");
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

Result<int> DoubleIfPositive(int v) {
  HATEN2_ASSIGN_OR_RETURN(int checked, ParsePositive(v));
  return checked * 2;
}

TEST(ResultTest, ValueAndErrorPaths) {
  Result<int> good = ParsePositive(5);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 5);
  EXPECT_EQ(*good, 5);
  EXPECT_EQ(good.value_or(-1), 5);

  Result<int> bad = ParsePositive(-2);
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  EXPECT_EQ(bad.value_or(-1), -1);

  EXPECT_EQ(DoubleIfPositive(4).value(), 8);
  EXPECT_FALSE(DoubleIfPositive(0).ok());
}

TEST(ResultTest, ConstructingFromOkStatusIsInternalError) {
  Result<int> r{Status::OK()};
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInternal());
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.239), "1.24");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(SplitJoinTrimTest, Basics) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(SplitWhitespace("  a\t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t\n "), "");
}

TEST(ParseTest, IntegersAndDoubles) {
  EXPECT_EQ(ParseInt64("42").value(), 42);
  EXPECT_EQ(ParseInt64(" -7 ").value(), -7);
  EXPECT_FALSE(ParseInt64("4.2").ok());
  EXPECT_FALSE(ParseInt64("abc").ok());
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_TRUE(ParseInt64("999999999999999999999999").status().IsOutOfRange());
  EXPECT_DOUBLE_EQ(ParseDouble("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(ParseDouble("1e3").value(), 1000.0);
  EXPECT_FALSE(ParseDouble("1.2.3").ok());
  EXPECT_FALSE(ParseDouble("").ok());
}

TEST(HumanFormatTest, Readable) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KB");
  EXPECT_EQ(HumanBytes(3ull << 30), "3.0 GB");
  EXPECT_EQ(HumanCount(950), "950");
  EXPECT_EQ(HumanCount(1500), "1.5K");
  EXPECT_EQ(HumanCount(2500000), "2.5M");
  EXPECT_EQ(HumanCount(3100000000ull), "3.1B");
  EXPECT_EQ(HumanSeconds(0.5), "500.0 ms");
  EXPECT_EQ(HumanSeconds(2.0), "2.00 s");
  EXPECT_EQ(HumanSeconds(300.0), "5.0 min");
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.UniformInt(uint64_t{10});
    EXPECT_LT(v, 10u);
  }
  for (int i = 0; i < 100; ++i) {
    int64_t v = rng.UniformInt(int64_t{-5}, int64_t{5});
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, ZipfSkewsTowardsSmallIndices) {
  Rng rng(2);
  int64_t first_two = 0;
  const int64_t n = 20000;
  for (int64_t i = 0; i < n; ++i) {
    if (rng.Zipf(100, 1.2) < 2) ++first_two;
  }
  // With exponent 1.2 the head holds a large share.
  EXPECT_GT(first_two, n / 4);
  EXPECT_EQ(rng.Zipf(0, 1.0), 0u);
  EXPECT_EQ(rng.Zipf(1, 1.0), 0u);
}

// Interleaving draws from several (n, s) pairs — more pairs than the
// cached tables, so some are rebuilt — yields exactly the draws of the
// single-table cache this sequence was pinned against.
TEST(RngTest, InterleavedZipfDrawsArePinned) {
  Rng rng(20261017);
  const struct {
    uint64_t n;
    double s;
  } dists[] = {{1000, 1.1}, {50000, 1.1}, {400, 1.1},
               {7, 0.5},    {1000, 2.0},  {3, 1.0}};
  const uint64_t pinned[] = {11, 1, 0, 2,  259, 1,  0,  12, 1, 0, 1, 34,
                             2,  0, 1, 0,  1,   2,  3,  0,  13, 366, 2, 0,
                             0,  0, 40, 13, 70, 0,  0,  0,  2, 1, 0, 3};
  for (int k = 0; k < 36; ++k) {
    const auto& d = dists[(k * 5 + k / 6) % 6];
    EXPECT_EQ(rng.Zipf(d.n, d.s), pinned[k]) << "draw " << k;
  }
}

TEST(RngTest, BernoulliAndNormalSanity) {
  Rng rng(3);
  int heads = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.25)) ++heads;
  }
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.25, 0.02);
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal(2.0, 3.0);
    sum += v;
    sum_sq += v * v;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(4);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  pool.ParallelFor(50, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
  // Zero iterations is a no-op; single thread runs inline.
  pool.ParallelFor(0, [](size_t) { FAIL(); });
  ThreadPool single(1);
  int count = 0;
  single.ParallelFor(10, [&count](size_t) { ++count; });
  EXPECT_EQ(count, 10);
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
}

TEST(MemoryTrackerTest, ChargeReleasePeak) {
  MemoryTracker tracker(1000);
  EXPECT_OK(tracker.Charge(400));
  EXPECT_OK(tracker.Charge(500));
  EXPECT_EQ(tracker.used(), 900u);
  Status s = tracker.Charge(200);
  EXPECT_TRUE(s.IsResourceExhausted());
  EXPECT_EQ(tracker.used(), 900u);  // failed charge rolled back
  tracker.Release(500);
  EXPECT_OK(tracker.Charge(200));
  EXPECT_EQ(tracker.peak(), 900u);
  tracker.Reset();
  EXPECT_EQ(tracker.used(), 0u);
  EXPECT_EQ(tracker.peak(), 0u);
}

TEST(MemoryTrackerTest, UnlimitedNeverFails) {
  MemoryTracker tracker;
  EXPECT_OK(tracker.Charge(uint64_t{1} << 60));
  EXPECT_OK(tracker.Charge(uint64_t{1} << 60));
}

TEST(MemoryTrackerTest, ConcurrentChargesBalance) {
  MemoryTracker tracker(MemoryTracker::kUnlimited);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&tracker] {
      for (int i = 0; i < 10000; ++i) {
        HATEN2_CHECK_OK(tracker.Charge(16));
        tracker.Release(16);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(tracker.used(), 0u);
}

TEST(ScopedChargeTest, ReleasesOnDestruction) {
  MemoryTracker tracker(100);
  {
    ScopedCharge charge(&tracker, 60);
    EXPECT_TRUE(charge.ok());
    EXPECT_EQ(tracker.used(), 60u);
    ScopedCharge denied(&tracker, 60);
    EXPECT_FALSE(denied.ok());
    EXPECT_TRUE(denied.status().IsResourceExhausted());
  }
  EXPECT_EQ(tracker.used(), 0u);
  ScopedCharge null_ok(nullptr, 1 << 30);
  EXPECT_TRUE(null_ok.ok());
}

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer timer;
  double t0 = timer.ElapsedSeconds();
  EXPECT_GE(t0, 0.0);
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(i);
  EXPECT_GE(timer.ElapsedSeconds(), t0);
  double bucket = 0.0;
  {
    ScopedTimer scoped(&bucket);
    for (int i = 0; i < 1000; ++i) sink = sink + i;
  }
  EXPECT_GE(bucket, 0.0);
  timer.Restart();
  EXPECT_LT(timer.ElapsedSeconds(), 1.0);
}

}  // namespace
}  // namespace haten2
