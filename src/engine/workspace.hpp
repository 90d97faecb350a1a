// TraversalWorkspace: per-graph reusable scratch arena for the traversal
// kernels, in the partition-centric tradition (PCPM, GraphChi): the hot loop
// of an iterative algorithm must not allocate, because malloc/free traffic
// pollutes exactly the caches the partitioned layouts exist to protect.
//
// The workspace pools every piece of transient state an edge_map call needs:
//   * next-frontier bitmaps — retired frontier bitmaps ping-pong back in via
//     Frontier::into_workspace; acquisition clears only the dirty (nonzero)
//     words of the recycled bitmap (Bitmap::clear_dirty), so the clearing
//     cost tracks the previous frontier's density rather than |V|;
//   * sparse vertex lists — the concatenated output of the sparse forward
//     kernel, and the sparse representation built by Frontier::to_sparse;
//   * per-thread slots (ThreadSlot) — each thread's output list and counters
//     on a cache line of its own; each list is sized for |V| once and kept,
//     so push_back never reallocates;
//   * per-chunk / per-thread edge counters and prefix-sum scratch;
//   * prepared domain-affine schedules (per-domain item buckets + claim
//     cursors, domain_sched.hpp), keyed by item set and thread budget.
//
// The partition chunk work lists (COO edge chunks, CSC vertex sub-chunks,
// pruned-CSR vertex chunks) are NOT here: they depend only on the immutable
// graph, so they are computed once at build time and cached inside
// PartitionedCoo / Partitioning / PartitionedCsr.
//
// A workspace is not thread-safe: one workspace per concurrently running
// traversal loop.  It may be shared freely across sequential edge_map calls
// and across graphs (pooled buffers are keyed by size where it matters).
// Engine owns one by default, so all Engine-driven algorithms get
// steady-state zero-allocation traversal without code changes; an Engine
// can instead borrow a caller-owned workspace (Engine(g, opts, ws)) — the
// re-entrant form used by the explicit-workspace algorithm entry points
// and service::WorkspacePool for concurrent queries over one shared graph.
// Call-site workspaces also drive the kernels directly (benchmarks,
// baseline engines).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "engine/domain_sched.hpp"
#include "sys/bitmap.hpp"
#include "sys/types.hpp"

namespace grind::engine {

/// One thread's private state in a per-thread filter (the sparse push,
/// vertex_map): the vertices it activated, the edges it examined and the
/// degree sum of its activated vertices.  Each slot owns a cache line, so
/// the list's end-pointer writes and the counters of neighbouring threads
/// never share one — a plain vector of vectors packs 2–3 list headers per
/// line and the push stops scaling past one thread.
struct alignas(kCacheLineBytes) ThreadSlot {
  std::vector<vid_t> list;
  eid_t edges = 0;
  eid_t degree = 0;
};

class TraversalWorkspace {
 public:
  /// Retired bitmaps kept for reuse.  Two suffice for frontier ping-pong
  /// (input + output); a couple more absorb algorithms that hold several
  /// frontiers (BC's level stack) without unbounded growth.
  static constexpr std::size_t kMaxPooledBitmaps = 4;
  /// Retired sparse vertex lists kept for reuse.
  static constexpr std::size_t kMaxPooledLists = 4;

  TraversalWorkspace() {
    // Reserve the (tiny) pool vectors up front so pool push_backs never
    // reallocate inside a traversal.
    bitmaps_.reserve(kMaxPooledBitmaps);
    lists_.reserve(kMaxPooledLists);
  }
  TraversalWorkspace(TraversalWorkspace&&) = default;
  TraversalWorkspace& operator=(TraversalWorkspace&&) = default;
  TraversalWorkspace(const TraversalWorkspace&) = delete;
  TraversalWorkspace& operator=(const TraversalWorkspace&) = delete;

  /// A cleared bitmap of `bits` bits.  Reuses a pooled bitmap of matching
  /// size when one is available (clearing only its dirty words); allocates
  /// otherwise.
  [[nodiscard]] Bitmap acquire_bitmap(std::size_t bits) {
    for (std::size_t i = 0; i < bitmaps_.size(); ++i) {
      if (bitmaps_[i].size() != bits) continue;
      Bitmap b = std::move(bitmaps_[i]);
      bitmaps_[i] = std::move(bitmaps_.back());
      bitmaps_.pop_back();
      b.clear_dirty();
      return b;
    }
    return Bitmap(bits);
  }

  /// Return a bitmap to the pool (contents may be dirty; cleared on
  /// acquisition).  Zero-size bitmaps are dropped.
  void recycle_bitmap(Bitmap&& b) {
    if (b.size() == 0) return;
    if (bitmaps_.size() < kMaxPooledBitmaps) {
      bitmaps_.push_back(std::move(b));
    } else {
      // Pool full: prefer evicting a mismatched size so a workspace shared
      // across graphs converges on the active graph's size.
      for (auto& slot : bitmaps_) {
        if (slot.size() != b.size()) {
          slot = std::move(b);
          return;
        }
      }
      bitmaps_.front() = std::move(b);
    }
  }

  /// An empty vertex list with room for `size` vertices: the smallest
  /// pooled list that fits (best fit keeps the big lists for the big
  /// frontiers, so a workspace that has seen a run's list sizes once serves
  /// them again without allocating), else the largest pooled list grown to
  /// fit, else a new one.
  [[nodiscard]] std::vector<vid_t> acquire_vertex_list(std::size_t size) {
    const auto better = [size](std::size_t cap, std::size_t best) {
      const bool fits = cap >= size;
      if (fits != (best >= size)) return fits;
      return fits ? cap < best : cap > best;
    };
    std::size_t pick = lists_.size();
    for (std::size_t i = 0; i < lists_.size(); ++i)
      if (pick == lists_.size() ||
          better(lists_[i].capacity(), lists_[pick].capacity()))
        pick = i;
    std::vector<vid_t> v;
    if (pick != lists_.size()) {
      v = std::move(lists_[pick]);
      lists_[pick] = std::move(lists_.back());
      lists_.pop_back();
      v.clear();
    }
    v.reserve(size);
    return v;
  }

  void recycle_vertex_list(std::vector<vid_t>&& v) {
    if (v.capacity() == 0) return;
    v.clear();
    if (lists_.size() < kMaxPooledLists) {
      lists_.push_back(std::move(v));
      return;
    }
    // Pool full: replace the smallest pooled list if the newcomer is bigger.
    std::size_t worst = 0;
    for (std::size_t i = 1; i < lists_.size(); ++i)
      if (lists_[i].capacity() < lists_[worst].capacity()) worst = i;
    if (lists_[worst].capacity() < v.capacity())
      lists_[worst] = std::move(v);
  }

  /// `nt` per-thread slots, each with its list emptied and its counters
  /// zeroed.  Every list has room for `capacity` vertices (callers pass
  /// |V|, the most one thread can emit), so a list never grows inside a
  /// traversal: with dynamic scheduling any thread may draw the largest
  /// share, and a growth-on-demand list would allocate whenever one does so
  /// for the first time.  Untouched capacity costs address space only.
  [[nodiscard]] std::vector<ThreadSlot>& thread_slots(std::size_t nt,
                                                      std::size_t capacity) {
    if (thread_slots_.size() < nt) thread_slots_.resize(nt);
    for (std::size_t t = 0; t < nt; ++t) {
      thread_slots_[t].list.clear();
      thread_slots_[t].list.reserve(capacity);
      thread_slots_[t].edges = 0;
      thread_slots_[t].degree = 0;
    }
    return thread_slots_;
  }

  /// `n` zeroed edge counters (per chunk or per thread).
  [[nodiscard]] std::vector<eid_t>& edge_counters(std::size_t n) {
    counters_.assign(n, 0);
    return counters_;
  }

  /// Two size_t scratch arrays of length `n` (uninitialized contents) for
  /// count/prefix-sum passes such as Frontier::to_sparse.
  [[nodiscard]] std::vector<std::size_t>& scratch_counts(std::size_t n) {
    scratch_counts_.resize(n);
    return scratch_counts_;
  }
  [[nodiscard]] std::vector<std::size_t>& scratch_offsets(std::size_t n) {
    scratch_offsets_.resize(n);
    return scratch_offsets_;
  }

  /// Cached domain-affine schedules (per item set × thread budget), so
  /// steady-state iterations of a traversal loop never rebuild the
  /// per-domain buckets (domain_sched.hpp).
  [[nodiscard]] DomainScheduleCache& domain_schedules() {
    return sched_cache_;
  }

  /// Raw message-value buffer for the PCPM scatter-gather kernel: `bytes`
  /// bytes, 8-byte aligned (double-sized elements), contents uninitialized.
  /// Capacity is retained across traversals, so steady-state iterations of
  /// one algorithm resize to the same byte count and never allocate.
  [[nodiscard]] std::byte* pcpm_values(std::size_t bytes) {
    if (pcpm_values_.size() < bytes) pcpm_values_.resize(bytes);
    return pcpm_values_.data();
  }

  /// One-time NUMA placement guard for the values buffer: the kernel
  /// page-places each destination partition's slice on its consumer domain
  /// the first time a given (graph bins, buffer storage) pairing is seen.
  /// The token compares the bin layout's identity and the buffer's data
  /// pointer, so a reallocation (growth) or a graph switch re-places while
  /// steady-state iterations skip the syscall path entirely.
  [[nodiscard]] bool pcpm_values_need_placement(const void* bins) {
    if (pcpm_placed_bins_ == bins && pcpm_placed_data_ == pcpm_values_.data())
      return false;
    pcpm_placed_bins_ = bins;
    pcpm_placed_data_ = pcpm_values_.data();
    return true;
  }

  /// Pool introspection (tests / diagnostics).
  [[nodiscard]] std::size_t pooled_bitmaps() const { return bitmaps_.size(); }
  [[nodiscard]] std::size_t pooled_vertex_lists() const {
    return lists_.size();
  }

  /// Drop all pooled storage (e.g. before measuring cold-start behaviour).
  void release_memory() {
    bitmaps_.clear();
    lists_.clear();
    thread_slots_.clear();
    thread_slots_.shrink_to_fit();
    counters_ = {};
    scratch_counts_ = {};
    scratch_offsets_ = {};
    pcpm_values_ = {};
    pcpm_placed_bins_ = nullptr;
    pcpm_placed_data_ = nullptr;
    sched_cache_.clear();
  }

 private:
  std::vector<Bitmap> bitmaps_;
  // grind-lint: allow(thread-state-unpadded) a pool of retired lists, not
  // per-thread state: only the thread driving the traversal touches it.
  std::vector<std::vector<vid_t>> lists_;
  std::vector<ThreadSlot> thread_slots_;
  std::vector<eid_t> counters_;
  std::vector<std::size_t> scratch_counts_;
  std::vector<std::size_t> scratch_offsets_;
  std::vector<std::byte> pcpm_values_;
  const void* pcpm_placed_bins_ = nullptr;
  const void* pcpm_placed_data_ = nullptr;
  DomainScheduleCache sched_cache_;
};

}  // namespace grind::engine
