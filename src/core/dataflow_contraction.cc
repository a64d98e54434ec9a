#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <memory>
#include <span>
#include <tuple>
#include <utility>

#include "core/contraction_strategy.h"
#include "core/records.h"
#include "mapreduce/plan.h"
#include "mapreduce/scheduler.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace haten2 {

namespace {

/// Tags every node of a finished contraction plan with the strategy name
/// before it is scheduled, so PlanNodeStats / stats_json attribute the work.
void AnnotateDataflow(Plan* plan) {
  for (int i = 0; i < plan->size(); ++i) {
    plan->AnnotateContraction(i, "dataflow");
  }
}


/// Value shuffled by the IMHP / DRN-Hadamard / DNN-Hadamard jobs: either a
/// tensor entry (kind 0) or a factor matrix/vector cell (kind 1).
struct JoinValue {
  Coord coord;   // tensor entry coordinate (kind 0 only)
  double value;  // entry value or factor cell value
  int32_t col;   // factor column (kind 1 only; -1 for vector cells)
  uint8_t kind;
};

/// Value shuffled by the Naive broadcast TTV jobs.
struct NaiveValue {
  int64_t j;  // index along the contracted mode
  double value;
  uint8_t kind;  // 0 = tensor entry, 1 = broadcast vector element
};

SliceBlocks MakeEmptyBlocks(const ContractionContext& ctx) {
  SliceBlocks out;
  out.free_dim = ctx.x->dim(ctx.free_mode);
  if (ctx.kind == MergeKind::kCross) {
    out.block_dims = ctx.block_dims;
  } else {
    out.block_dims = {ctx.block_dims.empty() ? 0 : ctx.block_dims[0]};
  }
  return out;
}

/// Kolda-order weights for the contracted modes: stream 0 varies fastest.
std::vector<int64_t> BlockWeights(const ContractionContext& ctx) {
  std::vector<int64_t> w(ctx.block_dims.size(), 1);
  for (size_t s = 1; s < ctx.block_dims.size(); ++s) {
    w[s] = w[s - 1] * ctx.block_dims[s - 1];
  }
  return w;
}

/// Merge-job output: one (slice, block) pair per reduce key, in no
/// particular order.
using SliceRows = std::vector<std::pair<int64_t, std::vector<double>>>;

/// Packs merge-job output into SliceBlocks: sorts by slice, then copies
/// each block into its row.
SliceBlocks SortedBlocks(const ContractionContext& ctx, SliceRows rows) {
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  SliceBlocks blocks = MakeEmptyBlocks(ctx);
  blocks.values =
      DenseMatrix(static_cast<int64_t>(rows.size()), blocks.BlockSize());
  blocks.slice_ids.reserve(rows.size());
  for (size_t k = 0; k < rows.size(); ++k) {
    blocks.slice_ids.push_back(rows[k].first);
    std::copy(rows[k].second.begin(), rows[k].second.end(),
              blocks.values.RowPtr(static_cast<int64_t>(k)));
  }
  return blocks;
}

// ---------------------------------------------------------------------------
// DRI: one IMHP job producing every Hadamard stream, then one merge job.
// ---------------------------------------------------------------------------

using KeyedHadamard = std::pair<int64_t, HadamardRecord>;
/// A Hadamard job's reduce partitions, handed to the merge job as its
/// ordered input runs (Engine::RunPartitioned).
using HadamardParts = PartitionedOutput<int64_t, HadamardRecord>;

Result<HadamardParts> RunImhpJob(const ContractionContext& ctx) {
  const SparseTensor& x = *ctx.x;
  const int64_t nnz = x.nnz();
  // Matrix cells are part of the job input, one record per (stream, row,
  // column), exactly as the paper's IMHP map reads <j, q, B(j,q)> records.
  std::vector<int64_t> matrix_begin(ctx.cmodes.size() + 1, nnz);
  for (size_t s = 0; s < ctx.cmodes.size(); ++s) {
    matrix_begin[s + 1] =
        matrix_begin[s] +
        x.dim(ctx.cmodes[s]) * ctx.cfactors[s]->cols();
  }
  const int64_t domain = matrix_begin.back();
  const int free_mode = ctx.free_mode;

  // (stream, index along mode). Both halves are 64-bit, so the key has no
  // padding bytes.
  using KMid = std::pair<int64_t, int64_t>;
  static_assert(sizeof(std::pair<KMid, JoinValue>) == 80,
                "the IMHP shuffle record is 80 bytes wide");
  auto reader = [&](int64_t i, ShuffleEmitter<KMid, JoinValue>* em) {
    if (i < nnz) {
      JoinValue v;
      v.coord = Coord::FromIndex(x.IndexPtr(i), x.order());
      v.value = x.value(i);
      v.col = -1;
      v.kind = 0;
      for (int s = 0; s < ctx.num_streams(); ++s) {
        int64_t along = v.coord.c[static_cast<size_t>(ctx.cmodes[s])];
        em->Emit(KMid(s, along), v);
      }
      return;
    }
    // Factor matrix cell.
    int s = 0;
    while (i >= matrix_begin[static_cast<size_t>(s) + 1]) ++s;
    int64_t cell = i - matrix_begin[static_cast<size_t>(s)];
    const DenseMatrix& f = *ctx.cfactors[static_cast<size_t>(s)];
    int64_t row = cell / f.cols();
    int64_t col = cell % f.cols();
    JoinValue v;
    v.coord.c.fill(-1);
    v.value = f(row, col);
    v.col = static_cast<int32_t>(col);
    v.kind = 1;
    em->Emit(KMid(s, row), v);
  };

  auto reducer = [&](const KMid& key, std::vector<JoinValue>& values,
                     OutputEmitter<int64_t, HadamardRecord>* out) {
    const int s = static_cast<int>(key.first);
    const int64_t q_count = ctx.cfactors[static_cast<size_t>(s)]->cols();
    std::vector<double> row(static_cast<size_t>(q_count), 0.0);
    for (const JoinValue& v : values) {
      if (v.kind == 1) row[static_cast<size_t>(v.col)] = v.value;
    }
    for (const JoinValue& v : values) {
      if (v.kind != 0) continue;
      // Stream 0 carries the tensor values; the other streams carry
      // bin(X)-scaled factor values (Lemmas 1 and 2).
      double base = (s == 0) ? v.value : 1.0;
      for (int64_t q = 0; q < q_count; ++q) {
        double scaled = base * row[static_cast<size_t>(q)];
        if (scaled == 0.0) continue;
        HadamardRecord rec;
        rec.coord = v.coord;
        rec.stream = s;
        rec.col = static_cast<int32_t>(q);
        rec.value = scaled;
        out->Emit(v.coord.c[static_cast<size_t>(free_mode)], rec);
      }
    }
  };

  return ctx.engine->RunPartitioned<KMid, JoinValue, int64_t, HadamardRecord>(
      "IMHP", domain, reader, reducer);
}

// ---------------------------------------------------------------------------
// DRN: one Hadamard job per (stream, column), then one merge job.
// ---------------------------------------------------------------------------

Result<HadamardParts> RunDrnHadamardJob(const ContractionContext& ctx, int s,
                                        int64_t q) {
  const SparseTensor& x = *ctx.x;
  const int64_t nnz = x.nnz();
  const int mode = ctx.cmodes[static_cast<size_t>(s)];
  const DenseMatrix& f = *ctx.cfactors[static_cast<size_t>(s)];
  const int64_t domain = nnz + x.dim(mode);
  auto reader = [&, s, mode, q](int64_t i,
                                ShuffleEmitter<int64_t, JoinValue>* em) {
    if (i < nnz) {
      JoinValue v;
      v.coord = Coord::FromIndex(x.IndexPtr(i), x.order());
      v.value = x.value(i);
      v.col = -1;
      v.kind = 0;
      em->Emit(v.coord.c[static_cast<size_t>(mode)], v);
      return;
    }
    int64_t row = i - nnz;
    JoinValue v;
    v.coord.c.fill(-1);
    v.value = f(row, q);
    v.col = static_cast<int32_t>(q);
    v.kind = 1;
    em->Emit(row, v);
  };
  auto reducer = [&, s, q](const int64_t& /*key*/,
                           std::vector<JoinValue>& values,
                           OutputEmitter<int64_t, HadamardRecord>* out) {
    double cell = 0.0;
    for (const JoinValue& v : values) {
      if (v.kind == 1) cell = v.value;
    }
    if (cell == 0.0) return;
    for (const JoinValue& v : values) {
      if (v.kind != 0) continue;
      double base = (s == 0) ? v.value : 1.0;
      double scaled = base * cell;
      if (scaled == 0.0) continue;
      HadamardRecord rec;
      rec.coord = v.coord;
      rec.stream = s;
      rec.col = static_cast<int32_t>(q);
      rec.value = scaled;
      out->Emit(v.coord.c[static_cast<size_t>(ctx.free_mode)], rec);
    }
  };
  std::string job_name = StrFormat("Hadamard[m%d,c%lld]", mode, (long long)q);
  return ctx.engine
      ->RunPartitioned<int64_t, JoinValue, int64_t, HadamardRecord>(
          job_name, domain, reader, reducer);
}

// ---------------------------------------------------------------------------
// Merge job shared by DRN and DRI: CrossMerge or PairwiseMerge keyed by the
// free-mode index (see the header note on keying).
// ---------------------------------------------------------------------------

/// \brief The merge join's order, coordinates ascending, packed into one
/// integer.
///
/// Within a slice the free coordinate is fixed and unused Coord slots are
/// -1, so coordinate order is the order of the contracted coordinates in
/// ascending mode order. Each takes the bits of its mode's largest index,
/// from the tensor's dims, first mode most significant. When the widths
/// sum past 64 bits, `fits` is false and the join sorts the coordinates
/// themselves.
class JoinKeyPacking {
 public:
  explicit JoinKeyPacking(const ContractionContext& ctx) : cmodes_(ctx.cmodes) {
    int total = 0;
    for (int mode : cmodes_) {
      coord_bits_.push_back(
          std::bit_width(static_cast<uint64_t>(ctx.x->dim(mode) - 1)));
      total += coord_bits_.back();
    }
    fits_ = total <= 64;
  }

  bool fits() const { return fits_; }

  uint64_t Pack(const HadamardRecord& rec) const {
    uint64_t key = 0;
    for (size_t s = 0; s < cmodes_.size(); ++s) {
      key = (key << coord_bits_[s]) |
            static_cast<uint64_t>(rec.coord.c[static_cast<size_t>(cmodes_[s])]);
    }
    return key;
  }

 private:
  std::vector<int> cmodes_;
  std::vector<int> coord_bits_;  // at most 63 each: dims are int64_t
  bool fits_ = false;
};

Result<SliceBlocks> RunMergeJob(
    const ContractionContext& ctx,
    const std::vector<std::span<const KeyedHadamard>>& runs) {
  const int num_streams = ctx.num_streams();
  const int64_t block_size = MakeEmptyBlocks(ctx).BlockSize();
  const std::vector<int64_t> weights = BlockWeights(ctx);
  const JoinKeyPacking packing(ctx);

  // The job's input is the runs' concatenation, read in place: record i is
  // in the last run whose prefix offset is <= i.
  std::vector<int64_t> offsets(1, 0);
  for (const auto& run : runs) {
    offsets.push_back(offsets.back() + static_cast<int64_t>(run.size()));
  }
  auto reader = [&runs, &offsets](int64_t i,
                                  ShuffleEmitter<int64_t, HadamardRecord>* em) {
    const size_t r = static_cast<size_t>(
        std::upper_bound(offsets.begin(), offsets.end(), i) -
        offsets.begin() - 1);
    const KeyedHadamard& rec = runs[r][static_cast<size_t>(i - offsets[r])];
    em->Emit(rec.first, rec.second);
  };

  auto reducer = [&](const int64_t& slice,
                     std::vector<HadamardRecord>& values,
                     OutputEmitter<int64_t, std::vector<double>>* out) {
    // Secondary sort on (coord, record index) — by the packed key when it
    // fits, else by the Coord — into (key, record index) pairs: each
    // original tensor coordinate's records become one run, so the join is
    // a walk and the block sums run in coordinate order. Within a run each
    // (stream, col) slot adds its records in input order.
    std::vector<std::pair<uint64_t, size_t>> order(values.size());
    for (size_t i = 0; i < values.size(); ++i) {
      order[i] = {packing.fits() ? packing.Pack(values[i]) : 0, i};
    }
    if (packing.fits()) {
      std::sort(order.begin(), order.end());
    } else {
      std::sort(order.begin(), order.end(),
                [&values](const auto& a, const auto& b) {
                  const HadamardRecord& x = values[a.second];
                  const HadamardRecord& y = values[b.second];
                  return std::tie(x.coord, a.second) <
                         std::tie(y.coord, b.second);
                });
    }
    std::array<std::vector<double>, kMaxMrOrder - 1> stream_vals;
    for (int s = 0; s < num_streams; ++s) {
      stream_vals[static_cast<size_t>(s)].resize(
          static_cast<size_t>(ctx.block_dims[static_cast<size_t>(s)]));
    }
    std::vector<double> block(static_cast<size_t>(block_size), 0.0);
    for (size_t k = 0; k < order.size();) {
      const Coord& coord = values[order[k].second].coord;
      std::array<bool, kMaxMrOrder - 1> present{};
      for (auto& vals : stream_vals) std::fill(vals.begin(), vals.end(), 0.0);
      for (; k < order.size() && values[order[k].second].coord == coord;
           ++k) {
        const HadamardRecord& rec = values[order[k].second];
        present[static_cast<size_t>(rec.stream)] = true;
        stream_vals[static_cast<size_t>(rec.stream)]
                   [static_cast<size_t>(rec.col)] += rec.value;
      }
      // A coordinate missing any stream contributes nothing (its factor row
      // was entirely zero).
      if (std::count(present.begin(), present.end(), true) < num_streams) {
        continue;
      }
      if (ctx.kind == MergeKind::kPairwise) {
        for (int64_t r = 0; r < block_size; ++r) {
          double p = 1.0;
          for (int s = 0; s < num_streams; ++s) {
            p *= stream_vals[static_cast<size_t>(s)][static_cast<size_t>(r)];
          }
          block[static_cast<size_t>(r)] += p;
        }
      } else {
        // Cross product of all streams' columns (odometer walk).
        std::array<int64_t, kMaxMrOrder - 1> q{};
        while (true) {
          double p = 1.0;
          int64_t off = 0;
          for (int s = 0; s < num_streams; ++s) {
            p *= stream_vals[static_cast<size_t>(s)]
                            [static_cast<size_t>(q[static_cast<size_t>(s)])];
            off += q[static_cast<size_t>(s)] * weights[static_cast<size_t>(s)];
          }
          if (p != 0.0) block[static_cast<size_t>(off)] += p;
          int s = 0;
          while (s < num_streams) {
            if (++q[static_cast<size_t>(s)] <
                ctx.block_dims[static_cast<size_t>(s)]) {
              break;
            }
            q[static_cast<size_t>(s)] = 0;
            ++s;
          }
          if (s == num_streams) break;
        }
      }
    }
    out->Emit(slice, std::move(block));
  };

  const char* name =
      ctx.kind == MergeKind::kCross ? "CrossMerge" : "PairwiseMerge";
  HATEN2_ASSIGN_OR_RETURN(
      SliceRows out,
      (ctx.engine->Run<int64_t, HadamardRecord, int64_t,
                       std::vector<double>>(name, offsets.back(), reader,
                                            reducer)));
  return SortedBlocks(ctx, std::move(out));
}

// ---------------------------------------------------------------------------
// DNN: decoupled Hadamard + Collapse, chained per stream (Algorithms 5, 6).
// ---------------------------------------------------------------------------

/// One n-mode vector Hadamard product job over in-flight tensor records:
/// scales every record by factor column `q` of `f` along `mode`.
Result<std::vector<HadamardRecord>> RunDnnHadamardJob(
    const ContractionContext& ctx, const std::vector<TensorRecord>& records, int mode,
    const DenseMatrix& f, int64_t q, int64_t mode_dim) {
  const int64_t n = static_cast<int64_t>(records.size());
  const int64_t domain = n + mode_dim;
  auto reader = [&](int64_t i, ShuffleEmitter<int64_t, JoinValue>* em) {
    if (i < n) {
      const TensorRecord& rec = records[static_cast<size_t>(i)];
      JoinValue v;
      v.coord = rec.coord;
      v.value = rec.value;
      v.col = -1;
      v.kind = 0;
      em->Emit(rec.coord.c[static_cast<size_t>(mode)], v);
      return;
    }
    int64_t row = i - n;
    JoinValue v;
    v.coord.c.fill(-1);
    v.value = f(row, q);
    v.col = static_cast<int32_t>(q);
    v.kind = 1;
    em->Emit(row, v);
  };
  auto reducer = [&, q](const int64_t& /*key*/,
                        std::vector<JoinValue>& values,
                        OutputEmitter<int64_t, HadamardRecord>* out) {
    double cell = 0.0;
    for (const JoinValue& v : values) {
      if (v.kind == 1) cell = v.value;
    }
    if (cell == 0.0) return;
    for (const JoinValue& v : values) {
      if (v.kind != 0) continue;
      double scaled = v.value * cell;
      if (scaled == 0.0) continue;
      HadamardRecord rec;
      rec.coord = v.coord;
      rec.stream = 0;
      rec.col = static_cast<int32_t>(q);
      rec.value = scaled;
      out->Emit(0, rec);
    }
  };
  std::string job_name = StrFormat("DNN-Hadamard[m%d,c%lld]", mode,
                                   (long long)q);
  HATEN2_ASSIGN_OR_RETURN(
      auto out, (ctx.engine->Run<int64_t, JoinValue, int64_t, HadamardRecord>(
                    job_name, domain, reader, reducer)));
  std::vector<HadamardRecord> result;
  result.reserve(out.size());
  for (auto& [k, rec] : out) result.push_back(rec);
  return result;
}

/// Collapse job: sums Hadamard records into cells; the collapsed mode's
/// coordinate is replaced by `replace_with_col ? record.col : 0`.
Result<std::vector<TensorRecord>> RunDnnCollapseJob(
    const ContractionContext& ctx, const std::vector<HadamardRecord>& records, int mode,
    bool replace_with_col) {
  auto reader = [&](int64_t i, ShuffleEmitter<Coord, double>* em) {
    const HadamardRecord& rec = records[static_cast<size_t>(i)];
    Coord key = rec.coord;
    key.c[static_cast<size_t>(mode)] =
        replace_with_col ? static_cast<int64_t>(rec.col) : 0;
    em->Emit(key, rec.value);
  };
  auto reducer = [](const Coord& key, std::vector<double>& values,
                    OutputEmitter<Coord, double>* out) {
    double sum = 0.0;
    for (double v : values) sum += v;
    if (sum != 0.0) out->Emit(key, sum);
  };
  std::string job_name = StrFormat("Collapse[m%d]", mode);
  HATEN2_ASSIGN_OR_RETURN(
      auto out,
      (ctx.engine->Run<Coord, double, Coord, double>(
          job_name, static_cast<int64_t>(records.size()), reader, reducer)));
  std::vector<TensorRecord> result;
  result.reserve(out.size());
  for (auto& [coord, value] : out) {
    result.push_back(TensorRecord{coord, value});
  }
  return result;
}

/// Zeroed blocks with one row per slice `record_sets` touch: the sorted
/// unique free-mode coordinates of their records.
SliceBlocks BlocksForRecords(
    const ContractionContext& ctx,
    const std::vector<const std::vector<TensorRecord>*>& record_sets) {
  SliceBlocks blocks = MakeEmptyBlocks(ctx);
  std::vector<int64_t>& slices = blocks.slice_ids;
  for (const auto* records : record_sets) {
    for (const TensorRecord& rec : *records) {
      slices.push_back(rec.coord.c[static_cast<size_t>(ctx.free_mode)]);
    }
  }
  std::sort(slices.begin(), slices.end());
  slices.erase(std::unique(slices.begin(), slices.end()), slices.end());
  blocks.values =
      DenseMatrix(static_cast<int64_t>(slices.size()), blocks.BlockSize());
  return blocks;
}

/// The row of `rec`'s slice in blocks made by BlocksForRecords.
double* RowOf(const ContractionContext& ctx, const TensorRecord& rec,
              SliceBlocks* blocks) {
  const int64_t slice = rec.coord.c[static_cast<size_t>(ctx.free_mode)];
  auto it = std::lower_bound(blocks->slice_ids.begin(),
                             blocks->slice_ids.end(), slice);
  return blocks->values.RowPtr(it - blocks->slice_ids.begin());
}

/// Assembles Y from the final cross-variant records: coordinates at
/// contracted modes hold factor-column indices. Cells accumulate in record
/// order (the merge order), so identical inputs give bit-identical sums.
SliceBlocks AssembleCrossBlocks(const ContractionContext& ctx,
                                const std::vector<TensorRecord>& records) {
  SliceBlocks blocks = BlocksForRecords(ctx, {&records});
  const std::vector<int64_t> weights = BlockWeights(ctx);
  for (const TensorRecord& rec : records) {
    int64_t off = 0;
    for (int s = 0; s < ctx.num_streams(); ++s) {
      off += rec.coord.c[static_cast<size_t>(ctx.cmodes[static_cast<size_t>(
                 s)])] *
             weights[static_cast<size_t>(s)];
    }
    RowOf(ctx, rec, &blocks)[off] += rec.value;
  }
  return blocks;
}

/// Assembles Y from the pairwise chains' final records: chain r fills
/// column r, its cells accumulating in record order.
SliceBlocks AssemblePairwiseBlocks(
    const ContractionContext& ctx,
    const std::vector<const std::vector<TensorRecord>*>& chains) {
  SliceBlocks blocks = BlocksForRecords(ctx, chains);
  for (size_t r = 0; r < chains.size(); ++r) {
    for (const TensorRecord& rec : *chains[r]) {
      RowOf(ctx, rec, &blocks)[r] += rec.value;
    }
  }
  return blocks;
}

Result<SliceBlocks> RunDnnCross(const ContractionContext& ctx,
                                const std::vector<TensorRecord>& base) {
  // Per stream: one Hadamard node per factor column (independent of each
  // other, all reading the previous stream's collapsed records), then one
  // Collapse node concatenating the per-column outputs in column order —
  // the fixed concatenation keeps the collapse job's input (and so every
  // downstream float sum) identical at any concurrency level.
  Plan plan("contract-dnn-cross");
  struct StreamState {
    std::vector<std::vector<HadamardRecord>> parts;
    std::vector<TensorRecord> collapsed;
  };
  std::vector<StreamState> st(static_cast<size_t>(ctx.num_streams()));
  int prev_collapse = -1;
  for (int s = 0; s < ctx.num_streams(); ++s) {
    const int mode = ctx.cmodes[static_cast<size_t>(s)];
    const DenseMatrix& f = *ctx.cfactors[static_cast<size_t>(s)];
    const std::vector<TensorRecord>* input =
        s == 0 ? &base : &st[static_cast<size_t>(s) - 1].collapsed;
    st[static_cast<size_t>(s)].parts.resize(static_cast<size_t>(f.cols()));
    std::vector<int> hnodes;
    for (int64_t q = 0; q < f.cols(); ++q) {
      std::vector<int> deps;
      if (prev_collapse >= 0) deps.push_back(prev_collapse);
      hnodes.push_back(plan.AddProducer<std::vector<HadamardRecord>>(
          StrFormat("DNN-Hadamard[m%d,c%lld]", mode, (long long)q),
          std::move(deps),
          [&ctx, input, mode, &f, q] {
            return RunDnnHadamardJob(ctx, *input, mode, f, q,
                                     ctx.x->dim(mode));
          },
          &st[static_cast<size_t>(s)].parts[static_cast<size_t>(q)]));
    }
    prev_collapse = plan.AddProducer<std::vector<TensorRecord>>(
        StrFormat("Collapse[m%d]", mode), hnodes,
        [&ctx, &st, s, mode]() -> Result<std::vector<TensorRecord>> {
          StreamState& state = st[static_cast<size_t>(s)];
          std::vector<HadamardRecord> scaled;
          size_t total = 0;
          for (const auto& p : state.parts) total += p.size();
          scaled.reserve(total);
          for (const auto& p : state.parts) {
            scaled.insert(scaled.end(), p.begin(), p.end());
          }
          return RunDnnCollapseJob(ctx, scaled, mode,
                                   /*replace_with_col=*/true);
        },
        &st[static_cast<size_t>(s)].collapsed);
  }
  AnnotateDataflow(&plan);
  PlanScheduler scheduler(ctx.engine);
  HATEN2_RETURN_IF_ERROR(scheduler.Execute(plan));
  return AssembleCrossBlocks(ctx, st.back().collapsed);
}

Result<SliceBlocks> RunDnnPairwise(const ContractionContext& ctx,
                                   const std::vector<TensorRecord>& base) {
  const int64_t rank = ctx.block_dims[0];
  // One Hadamard→Collapse chain per rank column; chains share no data, so
  // the scheduler overlaps them. Assembly happens after the plan.
  Plan plan("contract-dnn-pairwise");
  struct Chain {
    std::vector<std::vector<HadamardRecord>> scaled;   // per stream
    std::vector<std::vector<TensorRecord>> collapsed;  // per stream
  };
  std::vector<Chain> chains(static_cast<size_t>(rank));
  for (int64_t r = 0; r < rank; ++r) {
    Chain& ch = chains[static_cast<size_t>(r)];
    ch.scaled.resize(static_cast<size_t>(ctx.num_streams()));
    ch.collapsed.resize(static_cast<size_t>(ctx.num_streams()));
    int prev = -1;
    for (int s = 0; s < ctx.num_streams(); ++s) {
      const int mode = ctx.cmodes[static_cast<size_t>(s)];
      const DenseMatrix& f = *ctx.cfactors[static_cast<size_t>(s)];
      const std::vector<TensorRecord>* input =
          s == 0 ? &base : &ch.collapsed[static_cast<size_t>(s) - 1];
      std::vector<int> hdeps;
      if (prev >= 0) hdeps.push_back(prev);
      int h = plan.AddProducer<std::vector<HadamardRecord>>(
          StrFormat("DNN-Hadamard[m%d,c%lld]", mode, (long long)r),
          std::move(hdeps),
          [&ctx, input, mode, &f, r] {
            return RunDnnHadamardJob(ctx, *input, mode, f, r,
                                     ctx.x->dim(mode));
          },
          &ch.scaled[static_cast<size_t>(s)]);
      prev = plan.AddProducer<std::vector<TensorRecord>>(
          StrFormat("Collapse[m%d]", mode), {h},
          [&ctx, &ch, s, mode] {
            return RunDnnCollapseJob(ctx, ch.scaled[static_cast<size_t>(s)],
                                     mode, /*replace_with_col=*/false);
          },
          &ch.collapsed[static_cast<size_t>(s)]);
    }
  }
  AnnotateDataflow(&plan);
  PlanScheduler scheduler(ctx.engine);
  HATEN2_RETURN_IF_ERROR(scheduler.Execute(plan));
  std::vector<const std::vector<TensorRecord>*> finals;
  for (const Chain& ch : chains) finals.push_back(&ch.collapsed.back());
  return AssemblePairwiseBlocks(ctx, finals);
}

// ---------------------------------------------------------------------------
// Naive: per-column broadcast TTV jobs (Algorithms 3, 4). The factor column
// is copied to every fiber of the current tensor — the nnz(X) + IJK
// intermediate-data explosion the paper starts from.
// ---------------------------------------------------------------------------

Result<std::vector<TensorRecord>> RunNaiveTtvJob(
    const ContractionContext& ctx, const std::vector<TensorRecord>& records,
    const std::vector<int64_t>& cur_dims, int mode, const DenseMatrix& f,
    int64_t q, int64_t replace_value) {
  const int order = ctx.x->order();
  const int64_t n = static_cast<int64_t>(records.size());
  // All fibers along `mode` of the *full* tensor grid, nonzero or not.
  int64_t num_fibers = 1;
  std::vector<int64_t> fiber_weights(static_cast<size_t>(order), 0);
  for (int m = 0; m < order; ++m) {
    if (m == mode) continue;
    fiber_weights[static_cast<size_t>(m)] = num_fibers;
    num_fibers *= cur_dims[static_cast<size_t>(m)];
  }
  const int64_t domain = n + num_fibers;
  const int64_t mode_dim = ctx.x->dim(mode);

  auto reader = [&](int64_t i, ShuffleEmitter<Coord, NaiveValue>* em) {
    if (i < n) {
      const TensorRecord& rec = records[static_cast<size_t>(i)];
      Coord key = rec.coord;
      key.c[static_cast<size_t>(mode)] = -1;
      em->Emit(key,
               NaiveValue{rec.coord.c[static_cast<size_t>(mode)], rec.value,
                          0});
      return;
    }
    // Broadcast the whole factor column to this fiber.
    int64_t fiber = i - n;
    Coord key;
    key.c.fill(-1);
    for (int m = 0; m < order; ++m) {
      if (m == mode) continue;
      key.c[static_cast<size_t>(m)] =
          (fiber / fiber_weights[static_cast<size_t>(m)]) %
          cur_dims[static_cast<size_t>(m)];
    }
    for (int64_t j = 0; j < mode_dim; ++j) {
      em->Emit(key, NaiveValue{j, f(j, q), 1});
    }
  };

  auto reducer = [&](const Coord& key, std::vector<NaiveValue>& values,
                     OutputEmitter<int64_t, TensorRecord>* out) {
    std::unordered_map<int64_t, double> vec;
    for (const NaiveValue& v : values) {
      if (v.kind == 1 && v.value != 0.0) vec.emplace(v.j, v.value);
    }
    double sum = 0.0;
    for (const NaiveValue& v : values) {
      if (v.kind != 0) continue;
      auto it = vec.find(v.j);
      if (it != vec.end()) sum += v.value * it->second;
    }
    if (sum != 0.0) {
      Coord coord = key;
      coord.c[static_cast<size_t>(mode)] = replace_value;
      out->Emit(0, TensorRecord{coord, sum});
    }
  };

  std::string job_name =
      StrFormat("Naive-TTV[m%d,c%lld]", mode, (long long)q);
  HATEN2_ASSIGN_OR_RETURN(
      auto out, (ctx.engine->Run<Coord, NaiveValue, int64_t, TensorRecord>(
                    job_name, domain, reader, reducer)));
  std::vector<TensorRecord> result;
  result.reserve(out.size());
  for (auto& [k, rec] : out) result.push_back(rec);
  return result;
}

Result<SliceBlocks> RunNaiveCross(const ContractionContext& ctx,
                                  const std::vector<TensorRecord>& base) {
  // Per stream: independent per-column TTV nodes over the previous stream's
  // records, then a pure concatenation node (no engine job) fixing the
  // record order the next stream reads.
  Plan plan("contract-naive-cross");
  struct StreamState {
    std::vector<std::vector<TensorRecord>> parts;  // per column
    std::vector<TensorRecord> current;             // concatenated
  };
  std::vector<StreamState> st(static_cast<size_t>(ctx.num_streams()));
  // Dimensions of the in-flight tensor before contracting each stream
  // (earlier contractions replaced their mode's extent with the factor's
  // column count). Known at build time: the sequence is data-independent.
  std::vector<std::vector<int64_t>> dims_before(
      static_cast<size_t>(ctx.num_streams()));
  {
    std::vector<int64_t> dims = ctx.x->dims();
    for (int s = 0; s < ctx.num_streams(); ++s) {
      dims_before[static_cast<size_t>(s)] = dims;
      dims[static_cast<size_t>(ctx.cmodes[static_cast<size_t>(s)])] =
          ctx.cfactors[static_cast<size_t>(s)]->cols();
    }
  }
  int prev_concat = -1;
  for (int s = 0; s < ctx.num_streams(); ++s) {
    const int mode = ctx.cmodes[static_cast<size_t>(s)];
    const DenseMatrix& f = *ctx.cfactors[static_cast<size_t>(s)];
    const std::vector<TensorRecord>* input =
        s == 0 ? &base : &st[static_cast<size_t>(s) - 1].current;
    st[static_cast<size_t>(s)].parts.resize(static_cast<size_t>(f.cols()));
    std::vector<int> ttv_nodes;
    for (int64_t q = 0; q < f.cols(); ++q) {
      std::vector<int> deps;
      if (prev_concat >= 0) deps.push_back(prev_concat);
      ttv_nodes.push_back(plan.AddProducer<std::vector<TensorRecord>>(
          StrFormat("Naive-TTV[m%d,c%lld]", mode, (long long)q),
          std::move(deps),
          [&ctx, input, &dims = dims_before[static_cast<size_t>(s)], mode, &f,
           q] {
            return RunNaiveTtvJob(ctx, *input, dims, mode, f, q,
                                  /*replace_value=*/q);
          },
          &st[static_cast<size_t>(s)].parts[static_cast<size_t>(q)]));
    }
    prev_concat = plan.AddJob(
        StrFormat("concat[m%d]", mode), ttv_nodes, [&st, s]() -> Status {
          StreamState& state = st[static_cast<size_t>(s)];
          size_t total = 0;
          for (const auto& p : state.parts) total += p.size();
          state.current.reserve(total);
          for (const auto& p : state.parts) {
            state.current.insert(state.current.end(), p.begin(), p.end());
          }
          return Status::OK();
        });
  }
  AnnotateDataflow(&plan);
  PlanScheduler scheduler(ctx.engine);
  HATEN2_RETURN_IF_ERROR(scheduler.Execute(plan));
  return AssembleCrossBlocks(ctx, st.back().current);
}

Result<SliceBlocks> RunNaivePairwise(const ContractionContext& ctx,
                                     const std::vector<TensorRecord>& base) {
  const int64_t rank = ctx.block_dims[0];
  // One TTV chain per rank column, independent across columns; blocks are
  // assembled after the plan.
  Plan plan("contract-naive-pairwise");
  struct Chain {
    std::vector<std::vector<TensorRecord>> current;  // per stream
  };
  std::vector<Chain> chains(static_cast<size_t>(rank));
  std::vector<std::vector<int64_t>> dims_before(
      static_cast<size_t>(ctx.num_streams()));
  {
    std::vector<int64_t> dims = ctx.x->dims();
    for (int s = 0; s < ctx.num_streams(); ++s) {
      dims_before[static_cast<size_t>(s)] = dims;
      dims[static_cast<size_t>(ctx.cmodes[static_cast<size_t>(s)])] = 1;
    }
  }
  for (int64_t r = 0; r < rank; ++r) {
    Chain& ch = chains[static_cast<size_t>(r)];
    ch.current.resize(static_cast<size_t>(ctx.num_streams()));
    int prev = -1;
    for (int s = 0; s < ctx.num_streams(); ++s) {
      const int mode = ctx.cmodes[static_cast<size_t>(s)];
      const DenseMatrix& f = *ctx.cfactors[static_cast<size_t>(s)];
      const std::vector<TensorRecord>* input =
          s == 0 ? &base : &ch.current[static_cast<size_t>(s) - 1];
      std::vector<int> deps;
      if (prev >= 0) deps.push_back(prev);
      prev = plan.AddProducer<std::vector<TensorRecord>>(
          StrFormat("Naive-TTV[m%d,c%lld]", mode, (long long)r),
          std::move(deps),
          [&ctx, input, &dims = dims_before[static_cast<size_t>(s)], mode,
           &f, r] {
            return RunNaiveTtvJob(ctx, *input, dims, mode, f, r,
                                  /*replace_value=*/0);
          },
          &ch.current[static_cast<size_t>(s)]);
    }
  }
  AnnotateDataflow(&plan);
  PlanScheduler scheduler(ctx.engine);
  HATEN2_RETURN_IF_ERROR(scheduler.Execute(plan));
  std::vector<const std::vector<TensorRecord>*> finals;
  for (const Chain& ch : chains) finals.push_back(&ch.current.back());
  return AssemblePairwiseBlocks(ctx, finals);
}

const char* MergeName(MergeKind kind) {
  return kind == MergeKind::kCross ? "CrossMerge" : "PairwiseMerge";
}

// ---------------------------------------------------------------------------
// Fused sketched merge: one integrated broadcast job. The contracted factors
// are s-wide sketches, small enough (I_m × s doubles) for every map task to
// hold, so the join the IMHP job exists for disappears: the mapper reads a
// tensor entry, multiplies the matching sketched-factor rows in place, and
// emits one already-merged partial per sketch column. Shuffle volume is
// nnz·s records against IMHP+PairwiseMerge's join cells + nnz·(N-1)·s; the
// factor cells are still charged as job input (the broadcast has to be
// read), mirroring how IMHP counts its matrix cells.
// ---------------------------------------------------------------------------

Result<SliceBlocks> RunSketchFused(const ContractionContext& ctx) {
  const SparseTensor& x = *ctx.x;
  const int64_t nnz = x.nnz();
  const int64_t width = ctx.block_dims.empty() ? 0 : ctx.block_dims[0];
  // Broadcast factor cells are part of the job input domain, like the
  // IMHP job's matrix cells: reading them is charged, shuffling them is not.
  int64_t cells = 0;
  for (size_t s = 0; s < ctx.cmodes.size(); ++s) {
    cells += x.dim(ctx.cmodes[s]) * ctx.cfactors[s]->cols();
  }
  const int64_t domain = nnz + cells;
  const int free_mode = ctx.free_mode;

  auto reader = [&](int64_t i, ShuffleEmitter<int64_t, HadamardRecord>* em) {
    if (i >= nnz) return;  // broadcast cell: read, nothing to shuffle
    Coord coord = Coord::FromIndex(x.IndexPtr(i), x.order());
    const double base = x.value(i);
    for (int64_t j = 0; j < width; ++j) {
      double v = base;
      for (size_t s = 0; s < ctx.cmodes.size(); ++s) {
        v *= (*ctx.cfactors[s])(
            coord.c[static_cast<size_t>(ctx.cmodes[s])], j);
      }
      if (v == 0.0) continue;
      HadamardRecord rec;
      rec.coord = coord;
      rec.stream = 0;
      rec.col = static_cast<int32_t>(j);
      rec.value = v;
      em->Emit(coord.c[static_cast<size_t>(free_mode)], rec);
    }
  };

  auto reducer = [&](const int64_t& slice,
                     std::vector<HadamardRecord>& values,
                     OutputEmitter<int64_t, std::vector<double>>* out) {
    std::vector<double> block(static_cast<size_t>(width), 0.0);
    for (const HadamardRecord& rec : values) {
      block[static_cast<size_t>(rec.col)] += rec.value;
    }
    out->Emit(slice, std::move(block));
  };

  HATEN2_ASSIGN_OR_RETURN(
      SliceRows out,
      (ctx.engine->Run<int64_t, HadamardRecord, int64_t,
                       std::vector<double>>("SketchFusedMerge", domain,
                                            reader, reducer)));
  return SortedBlocks(ctx, std::move(out));
}

Result<SliceBlocks> RunSketchFusedPlan(const ContractionContext& ctx) {
  Plan plan("contract-sketch-fused");
  SliceBlocks blocks;
  plan.AddProducer<SliceBlocks>(
      "SketchFusedMerge", {}, [&ctx] { return RunSketchFused(ctx); },
      &blocks);
  AnnotateDataflow(&plan);
  PlanScheduler scheduler(ctx.engine);
  HATEN2_RETURN_IF_ERROR(scheduler.Execute(plan));
  return blocks;
}

// ---------------------------------------------------------------------------
// Plan builders for the two-phase variants (DRI, DRN).
// ---------------------------------------------------------------------------

/// The merge job's input runs: every partition of every Hadamard job's
/// output, in order.
std::vector<std::span<const KeyedHadamard>> MergeRuns(
    std::span<const HadamardParts> parts) {
  std::vector<std::span<const KeyedHadamard>> runs;
  for (const HadamardParts& part : parts) {
    for (const auto& partition : part) {
      if (!partition.empty()) runs.emplace_back(partition);
    }
  }
  return runs;
}

Result<SliceBlocks> RunDri(const ContractionContext& ctx) {
  Plan plan("contract-dri");
  HadamardParts scaled;
  SliceBlocks blocks;
  int imhp = plan.AddProducer<HadamardParts>(
      "IMHP", {}, [&ctx] { return RunImhpJob(ctx); }, &scaled);
  plan.AddProducer<SliceBlocks>(
      MergeName(ctx.kind), {imhp},
      [&ctx, &scaled] { return RunMergeJob(ctx, MergeRuns({&scaled, 1})); },
      &blocks);
  AnnotateDataflow(&plan);
  PlanScheduler scheduler(ctx.engine);
  HATEN2_RETURN_IF_ERROR(scheduler.Execute(plan));
  return blocks;
}

Result<SliceBlocks> RunDrn(const ContractionContext& ctx) {
  Plan plan("contract-drn");
  // One output slot per (stream, column) job: the merge job reads them in
  // (s, q) order, so its input order — and with it every downstream float
  // summation — is independent of which Hadamard node finished first.
  size_t total_jobs = 0;
  for (int s = 0; s < ctx.num_streams(); ++s) {
    total_jobs += static_cast<size_t>(ctx.cfactors[static_cast<size_t>(s)]
                                          ->cols());
  }
  std::vector<HadamardParts> parts(total_jobs);
  std::vector<int> hadamard_nodes;
  hadamard_nodes.reserve(total_jobs);
  size_t slot = 0;
  for (int s = 0; s < ctx.num_streams(); ++s) {
    const int mode = ctx.cmodes[static_cast<size_t>(s)];
    for (int64_t q = 0; q < ctx.cfactors[static_cast<size_t>(s)]->cols();
         ++q, ++slot) {
      hadamard_nodes.push_back(plan.AddProducer<HadamardParts>(
          StrFormat("Hadamard[m%d,c%lld]", mode, (long long)q), {},
          [&ctx, s, q] { return RunDrnHadamardJob(ctx, s, q); },
          &parts[slot]));
    }
  }
  SliceBlocks blocks;
  plan.AddProducer<SliceBlocks>(
      MergeName(ctx.kind), hadamard_nodes,
      [&ctx, &parts] { return RunMergeJob(ctx, MergeRuns(parts)); },
      &blocks);
  AnnotateDataflow(&plan);
  PlanScheduler scheduler(ctx.engine);
  HATEN2_RETURN_IF_ERROR(scheduler.Execute(plan));
  return blocks;
}

}  // namespace

Result<SliceBlocks> ContractDataflow(const ContractionContext& ctx) {
  // The DNN/Naive variants start from the decoded coordinate records of x —
  // an input scan that is invariant across ALS iterations, so a
  // per-decomposition ContractCache serves it without re-decoding.
  std::shared_ptr<const std::vector<TensorRecord>> base;
  if (ctx.variant == Variant::kDnn || ctx.variant == Variant::kNaive) {
    if (ctx.cache != nullptr) {
      base = ctx.cache->Records(ctx.engine, *ctx.x);
    } else {
      base = std::make_shared<const std::vector<TensorRecord>>(
          TensorToRecords(*ctx.x));
    }
  }

  // The fused sketched merge presupposes the integrated (DRI) design — a
  // single job that joins map-side and merges in its reduce. The variant
  // knob distinguishes how the *join* is staged, and kSketchFused has no
  // join to stage, so every variant takes the same fused job.
  if (ctx.kind == MergeKind::kSketchFused) return RunSketchFusedPlan(ctx);

  switch (ctx.variant) {
    case Variant::kDri:
      return RunDri(ctx);
    case Variant::kDrn:
      return RunDrn(ctx);
    case Variant::kDnn:
      return ctx.kind == MergeKind::kCross ? RunDnnCross(ctx, *base)
                                           : RunDnnPairwise(ctx, *base);
    case Variant::kNaive:
      return ctx.kind == MergeKind::kCross ? RunNaiveCross(ctx, *base)
                                           : RunNaivePairwise(ctx, *base);
  }
  return Status::InvalidArgument("unknown variant");
}

}  // namespace haten2
