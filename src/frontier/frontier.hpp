// Frontier: the set of active vertices, in either representation the paper
// uses (§II-A) — a sparse list of vertex IDs or a dense bitmap — plus the
// two statistics Algorithm 2's decision needs: |F| and Σ_{v∈F} deg⁺(v).
//
// The engine converts representations lazily: sparse→dense when a backward
// or COO traversal needs bitmap lookups, dense→sparse when a sparse forward
// traversal wants to iterate only active vertices.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "sys/bitmap.hpp"
#include "sys/types.hpp"

namespace grind::engine {
class TraversalWorkspace;
struct ThreadSlot;
}  // namespace grind::engine

namespace grind {

class Frontier {
 public:
  Frontier() = default;

  /// Empty frontier over n vertices (sparse representation).
  static Frontier empty(vid_t n);

  /// Frontier containing exactly `v` (sparse).  deg⁺ statistic is filled
  /// from `out` when provided.
  static Frontier single(vid_t n, vid_t v, const graph::Csr* out = nullptr);

  /// Frontier with all n vertices active (dense); Σ deg⁺ = |E| when `out`
  /// is provided.
  static Frontier all(vid_t n, const graph::Csr* out = nullptr);

  /// Sparse frontier from an explicit vertex list (statistics recomputed
  /// from `out` when provided).
  static Frontier from_vertices(vid_t n, std::vector<vid_t> verts,
                                const graph::Csr* out = nullptr);

  /// Sparse frontier concatenating the lists of the first `nt` per-thread
  /// slots into a list drawn from `ws`'s pool.  The statistics come from the
  /// slots (list lengths and degree accumulators), so nothing is recounted.
  static Frontier from_thread_slots(
      vid_t n, const std::vector<engine::ThreadSlot>& slots, std::size_t nt,
      engine::TraversalWorkspace& ws);

  /// Dense frontier adopting a bitmap produced by a traversal.  Statistics
  /// must be provided by the caller or recomputed via recount().
  static Frontier from_bitmap(Bitmap bits);

  // Observers ---------------------------------------------------------------

  [[nodiscard]] vid_t num_vertices() const { return n_; }
  [[nodiscard]] bool is_dense() const { return dense_rep_; }
  [[nodiscard]] vid_t num_active() const { return num_active_; }
  /// Σ deg⁺ over active vertices, the second term of Algorithm 2's weight.
  [[nodiscard]] eid_t active_out_degree() const { return out_degree_; }
  /// |F| + Σ deg⁺ — the quantity Algorithm 2 compares against |E|/20, |E|/2.
  [[nodiscard]] eid_t traversal_weight() const {
    return static_cast<eid_t>(num_active_) + out_degree_;
  }
  [[nodiscard]] bool empty() const { return num_active_ == 0; }
  [[nodiscard]] bool contains(vid_t v) const;

  /// Active vertices; valid only while sparse.
  [[nodiscard]] std::span<const vid_t> vertices() const { return sparse_; }
  /// Bit per vertex; valid only while dense.
  [[nodiscard]] const Bitmap& bitmap() const { return dense_; }
  [[nodiscard]] Bitmap& bitmap() { return dense_; }

  // Mutators ----------------------------------------------------------------

  /// Convert to dense bitmap representation (no-op if already dense).
  /// The bitmap is acquired from the workspace pool and the retired sparse
  /// list is returned to it, so steady-state conversions allocate nothing.
  void to_dense(engine::TraversalWorkspace& ws);
  /// Convert to sparse list representation (no-op if already sparse).
  /// The produced list is sorted by vertex ID.  The list and the
  /// count/offset scratch come from the workspace pools and the retired
  /// bitmap is recycled into it.
  void to_sparse(engine::TraversalWorkspace& ws);

  /// Retire this frontier: donate its backing storage (bitmap and/or sparse
  /// list) to `ws` for reuse by later traversals, leaving the frontier
  /// empty.  This is the move-based recycling that lets the next-frontier
  /// bitmap ping-pong between edge_map input and output instead of being
  /// freed and re-malloc'd every level.
  void into_workspace(engine::TraversalWorkspace& ws);

  /// Overwrite the cached statistics (used by traversals that track them
  /// incrementally).
  void set_stats(vid_t active, eid_t out_degree) {
    num_active_ = active;
    out_degree_ = out_degree;
  }

  /// Recompute |F| and Σ deg⁺ from the representation.  `out` supplies
  /// out-degrees; pass nullptr to only recount |F|.
  void recount(const graph::Csr* out);

  /// Σ adj.degree(v) over the active vertices (parallel), without touching
  /// the cached statistics — the transposed traversal weighs a frontier
  /// against in-degrees this way.
  [[nodiscard]] eid_t degree_sum(const graph::Csr& adj) const;

  /// Invoke f(v) for each active vertex (serial; order = id order when
  /// dense, insertion order when sparse).
  template <typename F>
  void for_each(F&& f) const {
    if (dense_rep_) {
      dense_.for_each_set([&](std::size_t v) { f(static_cast<vid_t>(v)); });
    } else {
      for (vid_t v : sparse_) f(v);
    }
  }

 private:
  vid_t n_ = 0;
  bool dense_rep_ = false;
  std::vector<vid_t> sparse_;
  Bitmap dense_;
  vid_t num_active_ = 0;
  eid_t out_degree_ = 0;
};

}  // namespace grind
