#include "linalg/sparse_kernels.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "util/string_util.h"

namespace haten2 {
namespace {

// Rank-blocking width for the MTTKRP inner loops: a 64-wide double buffer is
// 512 bytes, comfortably inside L1, and the fixed trip count lets the
// compiler unroll and vectorize the j-loops.
constexpr int kRankBlock = 64;

uint64_t Mix64(uint64_t h) {
  // splitmix64 finalizer.
  h += 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

uint64_t HashCombine(uint64_t seed, uint64_t v) {
  return Mix64(seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2)));
}

Status ValidateKernelArgs(const CsfLayout& layout,
                          const std::vector<const DenseMatrix*>& cfactors) {
  if (layout.num_streams <= 0 ||
      static_cast<int>(layout.cmodes.size()) != layout.num_streams) {
    return Status::InvalidArgument("sparse_kernels: malformed layout");
  }
  if (static_cast<int>(cfactors.size()) != layout.num_streams) {
    return Status::InvalidArgument(
        StrFormat("sparse_kernels: expected %d contracted factors, got %zu",
                  layout.num_streams, cfactors.size()));
  }
  for (const DenseMatrix* f : cfactors) {
    if (f == nullptr) {
      return Status::InvalidArgument(
          "sparse_kernels: null contracted factor");
    }
  }
  return Status::OK();
}

// An empty layout for contracting an order-`order` tensor over every mode
// except `free_mode`, with room for `nnz` entries.
CsfLayout EmptyLayout(int order, int free_mode, int64_t nnz) {
  CsfLayout layout;
  layout.free_mode = free_mode;
  layout.num_streams = order - 1;
  layout.cmodes.reserve(static_cast<size_t>(order - 1));
  for (int m = 0; m < order; ++m) {
    if (m != free_mode) layout.cmodes.push_back(m);
  }
  layout.entry_inner.reserve(static_cast<size_t>(nnz));
  layout.values.reserve(static_cast<size_t>(nnz));
  return layout;
}

// The layout order of `x`'s entries: slice (free coordinate) major, then
// the outer fiber coordinates cmodes[1..], then the innermost stream
// cmodes[0], then entry index (duplicates keep append order). It covers the
// full coordinate tuple, so on a canonical tensor the order within a slice
// depends on that slice's entries alone — what lets PatchCsfLayout rebuild
// some slices and copy the rest.
auto LayoutLess(const SparseTensor& x, const CsfLayout& layout) {
  return [&x, &layout](int64_t a, int64_t b) {
    const int64_t* ca = x.IndexPtr(a);
    const int64_t* cb = x.IndexPtr(b);
    const int f = layout.free_mode;
    if (ca[f] != cb[f]) return ca[f] < cb[f];
    for (int k = 1; k < layout.num_streams; ++k) {
      const int m = layout.cmodes[static_cast<size_t>(k)];
      if (ca[m] != cb[m]) return ca[m] < cb[m];
    }
    const int m0 = layout.cmodes[0];
    if (ca[m0] != cb[m0]) return ca[m0] < cb[m0];
    return a < b;
  };
}

// Appends `count` entries of `x`, listed by `perm` in layout order, to
// `layout`: a slice starts where the free coordinate changes and a fiber
// where an outer coordinate does; the first entry starts both.
void AppendInLayoutOrder(const SparseTensor& x, const int64_t* perm,
                         size_t count, CsfLayout* layout) {
  const int f = layout->free_mode;
  const int s = layout->num_streams;
  const std::vector<int>& cmodes = layout->cmodes;
  const int m0 = cmodes[0];
  const int64_t* prev = nullptr;
  for (size_t p = 0; p < count; ++p) {
    const int64_t* c = x.IndexPtr(perm[p]);
    const bool new_slice = prev == nullptr || c[f] != prev[f];
    bool new_fiber = new_slice;
    for (int k = 1; !new_fiber && k < s; ++k) {
      const int m = cmodes[static_cast<size_t>(k)];
      new_fiber = c[m] != prev[m];
    }
    if (new_slice) {
      layout->slice_ids.push_back(c[f]);
      layout->slice_fiber_begin.push_back(
          static_cast<int64_t>(layout->fiber_entry_begin.size()));
    }
    if (new_fiber) {
      layout->fiber_entry_begin.push_back(layout->nnz());
      for (int k = 1; k < s; ++k) {
        layout->fiber_coords.push_back(c[cmodes[static_cast<size_t>(k)]]);
      }
    }
    layout->entry_inner.push_back(c[m0]);
    layout->values.push_back(x.value(perm[p]));
    prev = c;
  }
}

// Closes the fiber and slice offset arrays after the last entry.
void CloseLayout(CsfLayout* layout) {
  layout->fiber_entry_begin.push_back(layout->nnz());
  layout->slice_fiber_begin.push_back(
      static_cast<int64_t>(layout->fiber_entry_begin.size()) - 1);
}

}  // namespace

uint64_t CsfLayout::MemoryBytes() const {
  uint64_t bytes = sizeof(CsfLayout);
  bytes += cmodes.capacity() * sizeof(int);
  bytes += slice_ids.capacity() * sizeof(int64_t);
  bytes += slice_fiber_begin.capacity() * sizeof(int64_t);
  bytes += fiber_entry_begin.capacity() * sizeof(int64_t);
  bytes += fiber_coords.capacity() * sizeof(int64_t);
  bytes += entry_inner.capacity() * sizeof(int64_t);
  bytes += values.capacity() * sizeof(double);
  return bytes;
}

Result<CsfLayout> BuildCsfLayout(const SparseTensor& x, int free_mode) {
  const int order = x.order();
  if (order < 2) {
    return Status::InvalidArgument(
        "BuildCsfLayout: tensor order must be >= 2");
  }
  if (free_mode < 0 || free_mode >= order) {
    return Status::InvalidArgument(
        StrFormat("BuildCsfLayout: free_mode %d out of range for %d-way",
                  free_mode, order));
  }
  const int64_t nnz = x.nnz();
  CsfLayout layout = EmptyLayout(order, free_mode, nnz);
  // std::sort is fine — layouts are built once and cached; stability is
  // irrelevant because the comparison covers the full coordinate tuple.
  std::vector<int64_t> perm(static_cast<size_t>(nnz));
  std::iota(perm.begin(), perm.end(), int64_t{0});
  std::sort(perm.begin(), perm.end(), LayoutLess(x, layout));
  AppendInLayoutOrder(x, perm.data(), perm.size(), &layout);
  CloseLayout(&layout);
  return layout;
}

Result<CsfLayout> PatchCsfLayout(const CsfLayout& old_layout,
                                 const SparseTensor& new_x,
                                 const std::vector<int64_t>& dirty_slices,
                                 CsfPatchCounters* counters) {
  const int order = new_x.order();
  if (order < 2) {
    return Status::InvalidArgument(
        "PatchCsfLayout: tensor order must be >= 2");
  }
  if (old_layout.free_mode < 0 || old_layout.free_mode >= order ||
      old_layout.num_streams != order - 1 ||
      static_cast<int>(old_layout.cmodes.size()) != old_layout.num_streams) {
    return Status::InvalidArgument(
        "PatchCsfLayout: layout does not match the tensor's order");
  }
  const int free_mode = old_layout.free_mode;
  const int s = old_layout.num_streams;

  std::vector<int64_t> dirty(dirty_slices);
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  const auto is_dirty = [&](int64_t id) {
    return std::binary_search(dirty.begin(), dirty.end(), id);
  };

  CsfLayout out = EmptyLayout(order, free_mode, new_x.nnz());
  // The new tensor's dirty-slice entries in BuildCsfLayout's order:
  // grouped by slice, slices ascending.
  std::vector<int64_t> rebuilt;
  for (int64_t e = 0; e < new_x.nnz(); ++e) {
    if (is_dirty(new_x.IndexPtr(e)[free_mode])) rebuilt.push_back(e);
  }
  std::sort(rebuilt.begin(), rebuilt.end(), LayoutLess(new_x, out));

  CsfPatchCounters local;
  // Dirty slices: BuildCsfLayout's walk over rebuilt[next, end). A slice
  // whose entries all cancelled has none left and simply vanishes.
  size_t next = 0;
  const auto rebuild_until = [&](size_t end) {
    const int64_t slices = out.num_slices();
    AppendInLayoutOrder(new_x, rebuilt.data() + next, end - next, &out);
    local.slices_rebuilt += out.num_slices() - slices;
    next = end;
  };
  // Clean slice: the positional arrays make its fibers and entries
  // relocatable, so splice the old segment verbatim.
  const auto copy_old_slice = [&](int64_t oi) {
    out.slice_ids.push_back(old_layout.slice_ids[static_cast<size_t>(oi)]);
    out.slice_fiber_begin.push_back(
        static_cast<int64_t>(out.fiber_entry_begin.size()));
    const int64_t fb = old_layout.slice_fiber_begin[static_cast<size_t>(oi)];
    const int64_t fe =
        old_layout.slice_fiber_begin[static_cast<size_t>(oi) + 1];
    const int64_t eb = old_layout.fiber_entry_begin[static_cast<size_t>(fb)];
    const int64_t ee = old_layout.fiber_entry_begin[static_cast<size_t>(fe)];
    // Rebase each fiber's entry offset from the old layout's coordinates
    // to the spliced position: fibers keep their *relative* begins within
    // the slice, shifted to where the slice now starts.
    const int64_t base = out.nnz();
    for (int64_t f = fb; f < fe; ++f) {
      out.fiber_entry_begin.push_back(
          base + old_layout.fiber_entry_begin[static_cast<size_t>(f)] - eb);
      for (int k = 0; k < s - 1; ++k) {
        out.fiber_coords.push_back(
            old_layout.fiber_coords[static_cast<size_t>(f * (s - 1) + k)]);
      }
    }
    out.entry_inner.insert(out.entry_inner.end(),
                           old_layout.entry_inner.begin() + eb,
                           old_layout.entry_inner.begin() + ee);
    out.values.insert(out.values.end(), old_layout.values.begin() + eb,
                      old_layout.values.begin() + ee);
    ++local.slices_reused;
  };

  // Ascending over slice ids: before each clean old slice, rebuild the
  // dirty slices that sort below it (present in the old layout or newly
  // nonempty), then copy it.
  for (int64_t oi = 0; oi < old_layout.num_slices(); ++oi) {
    const int64_t id = old_layout.slice_ids[static_cast<size_t>(oi)];
    if (is_dirty(id)) continue;
    size_t end = next;
    while (end < rebuilt.size() &&
           new_x.IndexPtr(rebuilt[end])[free_mode] < id) {
      ++end;
    }
    rebuild_until(end);
    copy_old_slice(oi);
  }
  rebuild_until(rebuilt.size());
  CloseLayout(&out);

  if (out.nnz() != new_x.nnz()) {
    return Status::Internal(StrFormat(
        "PatchCsfLayout: patched layout has %lld entries but the tensor has "
        "%lld — the edit was not confined to the declared dirty slices",
        static_cast<long long>(out.nnz()),
        static_cast<long long>(new_x.nnz())));
  }
  if (counters != nullptr) *counters = local;
  return out;
}

Status CsfMttkrp(const CsfLayout& layout,
                 const std::vector<const DenseMatrix*>& cfactors, int rank,
                 DenseMatrix* out) {
  Status st = ValidateKernelArgs(layout, cfactors);
  if (!st.ok()) return st;
  if (rank <= 0) {
    return Status::InvalidArgument("CsfMttkrp: rank must be positive");
  }
  for (const DenseMatrix* f : cfactors) {
    if (f->cols() != rank) {
      return Status::InvalidArgument(
          StrFormat("CsfMttkrp: factor has %lld columns, expected rank %d",
                    static_cast<long long>(f->cols()), rank));
    }
  }
  if (out == nullptr) {
    return Status::InvalidArgument("CsfMttkrp: null output");
  }

  const int s = layout.num_streams;
  const int64_t num_slices = layout.num_slices();
  *out = DenseMatrix(num_slices, rank);

  double t[kRankBlock];
  for (int r0 = 0; r0 < rank; r0 += kRankBlock) {
    const int rb = std::min(kRankBlock, rank - r0);
    for (int64_t si = 0; si < num_slices; ++si) {
      double* row = out->RowPtr(si) + r0;
      const int64_t fb = layout.slice_fiber_begin[static_cast<size_t>(si)];
      const int64_t fe = layout.slice_fiber_begin[static_cast<size_t>(si) + 1];
      for (int64_t f = fb; f < fe; ++f) {
        // Pass 1 (SpMV): inner product over the first contracted mode.
        std::memset(t, 0, sizeof(double) * static_cast<size_t>(rb));
        const int64_t eb = layout.fiber_entry_begin[static_cast<size_t>(f)];
        const int64_t ee = layout.fiber_entry_begin[static_cast<size_t>(f) + 1];
        for (int64_t e = eb; e < ee; ++e) {
          const double v = layout.values[static_cast<size_t>(e)];
          const double* a0 =
              cfactors[0]->RowPtr(layout.entry_inner[static_cast<size_t>(e)]) +
              r0;
          for (int j = 0; j < rb; ++j) t[j] += v * a0[j];
        }
        // Pass 2: scale by the outer contracted factors, ascending mode
        // order (matches the dataflow merge's product association).
        const int64_t* oc =
            layout.fiber_coords.data() + f * (s - 1);
        for (int k = 1; k < s; ++k) {
          const double* ak = cfactors[static_cast<size_t>(k)]->RowPtr(
                                 oc[k - 1]) +
                             r0;
          for (int j = 0; j < rb; ++j) t[j] *= ak[j];
        }
        for (int j = 0; j < rb; ++j) row[j] += t[j];
      }
    }
  }
  return Status::OK();
}

Status CsfCrossContract(const CsfLayout& layout,
                        const std::vector<const DenseMatrix*>& cfactors,
                        const std::vector<int64_t>& block_dims,
                        DenseMatrix* out) {
  Status st = ValidateKernelArgs(layout, cfactors);
  if (!st.ok()) return st;
  if (static_cast<int>(block_dims.size()) != layout.num_streams) {
    return Status::InvalidArgument(
        "CsfCrossContract: block_dims arity mismatch");
  }
  int64_t block = 1;
  for (size_t k = 0; k < block_dims.size(); ++k) {
    if (block_dims[k] <= 0 || cfactors[k]->cols() != block_dims[k]) {
      return Status::InvalidArgument(
          "CsfCrossContract: block_dims must match factor columns");
    }
    block *= block_dims[k];
  }
  if (out == nullptr) {
    return Status::InvalidArgument("CsfCrossContract: null output");
  }

  const int s = layout.num_streams;
  const int64_t num_slices = layout.num_slices();
  const int64_t r0dim = block_dims[0];
  *out = DenseMatrix(num_slices, block);

  std::vector<double> t(static_cast<size_t>(r0dim));
  std::vector<int64_t> q(static_cast<size_t>(s), 0);
  for (int64_t si = 0; si < num_slices; ++si) {
    double* row = out->RowPtr(si);
    const int64_t fb = layout.slice_fiber_begin[static_cast<size_t>(si)];
    const int64_t fe = layout.slice_fiber_begin[static_cast<size_t>(si) + 1];
    for (int64_t f = fb; f < fe; ++f) {
      // Inner pass: accumulate the stream-0 rank profile of the fiber.
      std::fill(t.begin(), t.end(), 0.0);
      const int64_t eb = layout.fiber_entry_begin[static_cast<size_t>(f)];
      const int64_t ee = layout.fiber_entry_begin[static_cast<size_t>(f) + 1];
      for (int64_t e = eb; e < ee; ++e) {
        const double v = layout.values[static_cast<size_t>(e)];
        const double* a0 =
            cfactors[0]->RowPtr(layout.entry_inner[static_cast<size_t>(e)]);
        for (int64_t j = 0; j < r0dim; ++j) t[static_cast<size_t>(j)] += v * a0[j];
      }
      // Outer pass: odometer over the remaining streams, stream 0 fastest
      // in the flattened block (the dataflow BlockWeights ordering). The
      // per-cell chain multiplies ascending so singleton fibers reproduce
      // the dataflow bits exactly.
      const int64_t* oc = layout.fiber_coords.data() + f * (s - 1);
      std::fill(q.begin(), q.end(), 0);
      for (;;) {
        int64_t offset = 0;
        int64_t weight = r0dim;
        for (int k = 1; k < s; ++k) {
          offset += q[static_cast<size_t>(k)] * weight;
          weight *= block_dims[static_cast<size_t>(k)];
        }
        for (int64_t j = 0; j < r0dim; ++j) {
          double p = t[static_cast<size_t>(j)];
          if (p == 0.0) continue;
          for (int k = 1; k < s; ++k) {
            p *= (*cfactors[static_cast<size_t>(k)])(oc[k - 1],
                                                     q[static_cast<size_t>(k)]);
          }
          row[offset + j] += p;
        }
        int k = 1;
        while (k < s) {
          if (++q[static_cast<size_t>(k)] < block_dims[static_cast<size_t>(k)]) {
            break;
          }
          q[static_cast<size_t>(k)] = 0;
          ++k;
        }
        if (k >= s) break;
      }
    }
  }
  return Status::OK();
}

uint64_t TensorFingerprint(const SparseTensor& x) {
  uint64_t h = 0x686174656e320000ULL;  // "haten2" tag
  h = HashCombine(h, static_cast<uint64_t>(x.order()));
  for (int64_t d : x.dims()) h = HashCombine(h, static_cast<uint64_t>(d));
  const int64_t nnz = x.nnz();
  h = HashCombine(h, static_cast<uint64_t>(nnz));
  // Hash every entry's full coordinate tuple and raw value bits: an
  // epoch-delta merge routinely changes a handful of values at arbitrary
  // positions without moving nnz, which an evenly-sampled hash misses.
  const int order = x.order();
  for (int64_t e = 0; e < nnz; ++e) {
    const int64_t* c = x.IndexPtr(e);
    for (int m = 0; m < order; ++m) {
      h = HashCombine(h, static_cast<uint64_t>(c[m]));
    }
    uint64_t bits;
    const double v = x.value(e);
    std::memcpy(&bits, &v, sizeof(bits));
    h = HashCombine(h, bits);
  }
  return h;
}

}  // namespace haten2
