#include "span_trace.h"

#include <algorithm>
#include <unordered_map>

#include "util/json_writer.h"
#include "util/string_util.h"

namespace haten2 {
namespace perfbench {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

double SpanRecorder::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int64_t SpanRecorder::Begin(const std::string& name, const std::string& layer,
                            int64_t parent, int64_t request) {
  if (!enabled_) return -1;
  const double now = NowUs();
  return Add(name, layer, parent, request, now, now);
}

void SpanRecorder::End(int64_t id) {
  if (!enabled_ || id < 0) return;
  const double now = NowUs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_us = now;
}

int64_t SpanRecorder::Add(const std::string& name, const std::string& layer,
                          int64_t parent, int64_t request, double start_us,
                          double end_us, int lane) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = name;
  s.layer = layer;
  s.start_us = start_us;
  s.end_us = end_us;
  s.id = static_cast<int64_t>(spans_.size());
  s.parent = parent;
  s.request = request;
  // Children draw on their parent's row so the timeline nests them.
  s.lane = parent >= 0 ? spans_[static_cast<size_t>(parent)].lane : lane;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

Span SpanRecorder::Get(int64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_[static_cast<size_t>(id)];
}

std::vector<Span> SpanRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<int64_t> AddSequentialChildren(SpanRecorder* rec, int64_t parent,
                                           const std::vector<ChildSpec>& kids) {
  std::vector<int64_t> ids;
  if (!rec->enabled() || parent < 0) return ids;
  const Span p = rec->Get(parent);
  double cursor = p.start_us;
  for (const ChildSpec& k : kids) {
    const double end = std::min(p.end_us, cursor + k.seconds * 1e6);
    ids.push_back(rec->Add(k.name, k.layer, parent, p.request, cursor, end));
    cursor = end;
  }
  return ids;
}

namespace {

/// Children of each span id, in recording order.
std::unordered_map<int64_t, std::vector<size_t>> ChildIndex(
    const std::vector<Span>& spans) {
  std::unordered_map<int64_t, std::vector<size_t>> kids;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) kids[spans[i].parent].push_back(i);
  }
  return kids;
}

}  // namespace

std::vector<double> SelfTimesUs(const std::vector<Span>& spans) {
  std::unordered_map<int64_t, size_t> pos;
  for (size_t i = 0; i < spans.size(); ++i) pos[spans[i].id] = i;
  const auto kids = ChildIndex(spans);
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    std::vector<std::pair<double, double>> cover;
    auto it = kids.find(p.id);
    if (it != kids.end()) {
      for (size_t k : it->second) {
        const double a = std::max(p.start_us, spans[k].start_us);
        const double b = std::min(p.end_us, spans[k].end_us);
        if (b > a) cover.emplace_back(a, b);
      }
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double run_a = 0.0;
    double run_b = -1.0;
    for (const auto& [a, b] : cover) {
      if (a > run_b) {
        if (run_b > run_a) covered += run_b - run_a;
        run_a = a;
        run_b = b;
      } else {
        run_b = std::max(run_b, b);
      }
    }
    if (run_b > run_a) covered += run_b - run_a;
    self[i] = p.dur_us() - covered;
  }
  return self;
}

Status CheckSelfTimeAccounting(const std::vector<Span>& spans,
                               double tol_us) {
  std::unordered_map<int64_t, size_t> pos;
  for (size_t i = 0; i < spans.size(); ++i) pos[spans[i].id] = i;
  const auto kids = ChildIndex(spans);
  for (const Span& s : spans) {
    if (s.end_us + tol_us < s.start_us) {
      return Status::Internal(StrFormat("span %lld (%s) ends before it starts",
                                        (long long)s.id, s.name.c_str()));
    }
    if (s.parent < 0) continue;
    auto p = pos.find(s.parent);
    if (p == pos.end()) {
      return Status::Internal(StrFormat("span %lld has unknown parent %lld",
                                        (long long)s.id, (long long)s.parent));
    }
    const Span& parent = spans[p->second];
    if (s.start_us + tol_us < parent.start_us ||
        s.end_us > parent.end_us + tol_us) {
      return Status::Internal(StrFormat(
          "span %lld (%s) escapes its parent %s", (long long)s.id,
          s.name.c_str(), parent.name.c_str()));
    }
  }
  for (const auto& [parent_id, children] : kids) {
    std::vector<size_t> order = children;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return spans[a].start_us < spans[b].start_us;
    });
    for (size_t k = 1; k < order.size(); ++k) {
      const Span& prev = spans[order[k - 1]];
      const Span& cur = spans[order[k]];
      if (prev.lane == cur.lane && cur.start_us + tol_us < prev.end_us) {
        return Status::Internal(StrFormat(
            "sibling spans %s and %s overlap under parent %lld",
            prev.name.c_str(), cur.name.c_str(), (long long)parent_id));
      }
    }
  }
  // With nesting and disjoint siblings established, each tree's self times
  // must add up to its root's duration; verify the arithmetic directly.
  const std::vector<double> self = SelfTimesUs(spans);
  std::unordered_map<int64_t, int64_t> root_of;
  for (const Span& s : spans) {
    int64_t r = s.id;
    while (spans[pos[r]].parent >= 0) r = spans[pos[r]].parent;
    root_of[s.id] = r;
  }
  std::unordered_map<int64_t, double> tree_self;
  for (size_t i = 0; i < spans.size(); ++i) {
    tree_self[root_of[spans[i].id]] += self[i];
  }
  for (const auto& [root, sum] : tree_self) {
    const Span& r = spans[pos[root]];
    const double slack =
        tol_us * static_cast<double>(std::max<size_t>(1, spans.size()));
    if (sum > r.dur_us() + slack || sum + slack < r.dur_us()) {
      return Status::Internal(StrFormat(
          "self times under %s sum to %.3f us, span lasts %.3f us",
          r.name.c_str(), sum, r.dur_us()));
    }
  }
  return Status::OK();
}

std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimesUs(spans);
  std::map<std::string, double> by_layer;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_layer[spans[i].layer] += self[i] * 1e-6;
  }
  return by_layer;
}

std::string ChromeTraceJson(const std::vector<Span>& input) {
  // Complete events on one row must nest, so overlapping spans get the
  // first row (from 100 up) whose last span has ended.
  std::vector<Span> spans = input;
  std::vector<size_t> overlapping;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].lane == kOverlappingLane) overlapping.push_back(i);
  }
  std::sort(overlapping.begin(), overlapping.end(), [&](size_t a, size_t b) {
    return spans[a].start_us < spans[b].start_us;
  });
  std::vector<double> row_free_at;
  for (size_t i : overlapping) {
    size_t row = 0;
    while (row < row_free_at.size() && row_free_at[row] > spans[i].start_us) {
      ++row;
    }
    if (row == row_free_at.size()) row_free_at.push_back(0.0);
    row_free_at[row] = spans[i].end_us;
    spans[i].lane = 100 + static_cast<int>(row);
  }
  JsonWriter w;
  w.BeginObject().Key("displayTimeUnit").Value("ms");
  w.Key("traceEvents").BeginArray();
  std::map<int, bool> lanes;
  for (const Span& s : spans) lanes[s.lane] = true;
  for (const auto& [lane, unused] : lanes) {
    (void)unused;
    w.BeginObject()
        .Key("name").Value("thread_name")
        .Key("ph").Value("M")
        .Key("pid").Value(1)
        .Key("tid").Value(lane)
        .Key("args").BeginObject()
        .Key("name").Value(lane == 0 ? std::string("driver")
                                     : StrFormat("lane %d", lane))
        .EndObject()
        .EndObject();
  }
  for (const Span& s : spans) {
    w.BeginObject()
        .Key("name").Value(s.name)
        .Key("cat").Value(s.layer)
        .Key("ph").Value("X")
        .Key("ts").Value(s.start_us)
        .Key("dur").Value(std::max(0.0, s.dur_us()))
        .Key("pid").Value(1)
        .Key("tid").Value(s.lane)
        .Key("args").BeginObject()
        .Key("id").Value(s.id)
        .Key("parent").Value(s.parent)
        .Key("request").Value(s.request)
        .EndObject()
        .EndObject();
  }
  w.EndArray().EndObject();
  return w.str();
}

}  // namespace perfbench
}  // namespace haten2
