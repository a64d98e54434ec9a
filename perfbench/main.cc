// perfbench — the repository benchmark's workload binary, driven by run.py.
//
//   perfbench gen --workload=W --seed=S [--tiny] --out=PATH
//       writes the workload's input tensor for seed S
//   perfbench run --workload=W --seed=S [--tiny] --input=PATH --seconds=N
//                 --trace=0|1 [--trace_out=PATH] [--expect_fit=F]
//                 [--expect_records=N] --result=PATH
//       runs the workload and writes {correct, attempted, failed, metrics}
//   perfbench unittest
//       checks the tail-percentile rule and the self-time arithmetic
//
// Exit code 0 when the command ran (a run with failed output checks still
// exits 0 and reports correct=false); 1 on bad arguments or set-up errors.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "metrics.h"
#include "span_trace.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "workloads.h"

namespace haten2 {
namespace perfbench {
namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  return 1;
}

int Generate(const FlagParser& flags) {
  const std::string workload = flags.GetString("workload", "");
  const std::string out = flags.GetString("out", "");
  Result<int64_t> seed = flags.GetInt("seed", 1);
  if (!KnownWorkload(workload) || out.empty() || !seed.ok()) {
    return Fail("gen needs --workload, --seed and --out");
  }
  Status s = GenerateInput(workload, flags.GetBool("tiny", false),
                           static_cast<uint64_t>(*seed), out);
  return s.ok() ? 0 : Fail(s.ToString());
}

int Run(const FlagParser& flags) {
  RunOptions o;
  o.workload = flags.GetString("workload", "");
  o.tiny = flags.GetBool("tiny", false);
  o.input = flags.GetString("input", "");
  o.trace_out = flags.GetString("trace_out", "");
  const std::string result_path = flags.GetString("result", "");
  Result<int64_t> seed = flags.GetInt("seed", 1);
  Result<double> seconds = flags.GetDouble("seconds", 10.0);
  Result<int64_t> trace = flags.GetInt("trace", 0);
  Result<double> expect_fit = flags.GetDouble("expect_fit", std::nan(""));
  Result<int64_t> expect_records = flags.GetInt("expect_records", -1);
  if (!KnownWorkload(o.workload) || o.input.empty() || result_path.empty() ||
      !seed.ok() || !seconds.ok() || !trace.ok() || !expect_fit.ok() ||
      !expect_records.ok()) {
    return Fail("run needs --workload, --input, --result and numeric "
                "--seed/--seconds/--trace");
  }
  o.seed = static_cast<uint64_t>(*seed);
  o.seconds = *seconds;
  o.trace = *trace != 0;
  o.expect_fit = *expect_fit;
  o.expect_records = *expect_records;
  RunLog log;
  MetricMap metrics;
  Status s = RunWorkload(o, &log, &metrics);
  if (!s.ok()) return Fail(s.ToString());
  s = WriteTextFile(result_path, ResultJson(log, metrics));
  return s.ok() ? 0 : Fail(s.ToString());
}

// --- unittest -------------------------------------------------------------

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestTailRule() {
  // 50 epochs: p80 is the 40th value, with exactly 10 beyond it.
  TailStat t = Tail(Range(50));
  Expect(t.valid && t.percentile == 80 && t.value == 40.0, "tail of 50");
  t = Tail(Range(1000));
  Expect(t.valid && t.percentile == 99 && t.value == 990.0, "tail of 1000");
  t = Tail(Range(20));
  Expect(t.valid && t.percentile == 50 && t.value == 10.0, "tail of 20");
  t = Tail(Range(11));
  Expect(t.valid && t.percentile == 9 && t.value == 1.0, "tail of 11");
  Expect(!Tail(Range(10)).valid, "10 samples have no qualifying tail");
  Expect(!Tail({}).valid, "empty sample has no tail");
  Expect(Median(Range(4)) == 2.5 && Median(Range(5)) == 3.0, "median");
  Expect(NearestRank(Range(100), 0.99) == 99.0, "nearest rank p99");
  Expect(std::isinf(NearestRank({1.0, 2.0, INFINITY}, 0.99)),
         "a failed (infinite) sample counts as missing the limit");
}

void TestSelfTimes() {
  SpanRecorder rec(true);
  // root [0,100] with children [10,40] and [50,70]; grandchild [15,25].
  const int64_t root = rec.Add("root", "bench", -1, 0, 0, 100);
  const int64_t a = rec.Add("a", "core", root, 0, 10, 40);
  rec.Add("b", "linalg", root, 0, 50, 70);
  rec.Add("a1", "linalg", a, 0, 15, 25);
  std::vector<Span> spans = rec.Snapshot();
  std::vector<double> self = SelfTimesUs(spans);
  Expect(Near(self[0], 50) && Near(self[1], 20) && Near(self[2], 20) &&
             Near(self[3], 10),
         "self = duration minus children");
  Expect(CheckSelfTimeAccounting(spans).ok(), "well-formed tree accounts");
  std::map<std::string, double> by_layer = SelfSecondsByLayer(spans);
  Expect(Near(by_layer["linalg"], 30e-6) && Near(by_layer["core"], 20e-6) &&
             Near(by_layer["bench"], 50e-6),
         "self time by layer");

  // Overlapping children (another lane) are counted once in the union.
  SpanRecorder lanes(true);
  const int64_t p = lanes.Add("p", "bench", -1, 0, 0, 100);
  lanes.Add("x", "core", p, 0, 0, 60);
  lanes.Add("y", "core", p, 0, 40, 80);
  self = SelfTimesUs(lanes.Snapshot());
  Expect(Near(self[0], 20), "union of overlapping children");
  Expect(!CheckSelfTimeAccounting(lanes.Snapshot()).ok(),
         "overlapping siblings on one lane are rejected");

  SpanRecorder escape(true);
  const int64_t q = escape.Add("q", "bench", -1, 0, 0, 10);
  escape.Add("late", "core", q, 0, 5, 20);
  Expect(!CheckSelfTimeAccounting(escape.Snapshot()).ok(),
         "a child outside its parent is rejected");

  // Sequential children are laid out back to back and clipped.
  SpanRecorder seq(true);
  const int64_t s = seq.Add("s", "bench", -1, 0, 0, 100);
  AddSequentialChildren(&seq, s, {{"u", "core", 60e-6}, {"v", "core", 60e-6}});
  spans = seq.Snapshot();
  Expect(Near(spans[1].end_us, 60) && Near(spans[2].start_us, 60) &&
             Near(spans[2].end_us, 100),
         "sequential children clipped to the parent");
  Expect(CheckSelfTimeAccounting(spans).ok(), "clipped children account");

  SpanRecorder off(false);
  Expect(off.Begin("x", "core", -1, 0) == -1 && off.Snapshot().empty(),
         "a disabled recorder records nothing");
  const std::string json = ChromeTraceJson(rec.Snapshot());
  Expect(json.find("\"traceEvents\"") != std::string::npos &&
             json.find("\"ph\":\"X\"") != std::string::npos,
         "Chrome trace-event JSON");
}

int UnitTest() {
  TestTailRule();
  TestSelfTimes();
  if (failures == 0) std::printf("perfbench unittest: ok\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace haten2

int main(int argc, char** argv) {
  using namespace haten2;
  FlagParser flags(argc, argv);
  Status valid = flags.Validate({"workload", "seed", "tiny", "out", "input",
                                 "seconds", "trace", "trace_out", "expect_fit",
                                 "expect_records", "result"});
  if (!valid.ok() || flags.positional().size() != 1) {
    return perfbench::Fail("usage: perfbench gen|run|unittest [--flags]; " +
                           valid.ToString());
  }
  const std::string command = flags.positional()[0];
  if (command == "gen") return perfbench::Generate(flags);
  if (command == "run") return perfbench::Run(flags);
  if (command == "unittest") return perfbench::UnitTest();
  return perfbench::Fail("unknown command: " + command);
}
