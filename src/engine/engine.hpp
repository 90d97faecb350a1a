// User-facing façade binding a composite graph to engine options and
// accumulated traversal statistics.  Algorithms receive an Engine& and call
// edge_map / vertex_map; benchmarks reconfigure the options between runs to
// force layouts ("CSR+a", "COO+na", ...) without rebuilding the graph.
#pragma once

#include <memory>
#include <string>

#include "engine/edge_map.hpp"
#include "engine/operators.hpp"
#include "engine/options.hpp"
#include "engine/vertex_map.hpp"
#include "engine/workspace.hpp"
#include "frontier/frontier.hpp"
#include "graph/graph.hpp"

namespace grind::engine {

class Engine {
 public:
  explicit Engine(const graph::Graph& g, Options opts = {})
      : graph_(&g), opts_(opts) {}

  /// Bind to a caller-owned workspace instead of the engine's internal one.
  /// This is the re-entrant form: the Engine itself is a few words and cheap
  /// to construct per query, while the heavy pooled scratch lives in `ws`
  /// (e.g. the one a service worker owns).  `ws` must outlive the
  /// engine and must not be shared with a concurrently running traversal.
  Engine(const graph::Graph& g, Options opts, TraversalWorkspace& ws)
      : graph_(&g), opts_(opts), external_ws_(&ws) {}

  /// Apply an edge operator to the active out-edges (in direction D) of f
  /// (Algorithm 2).
  /// Scratch state comes from the engine's workspace, so iterative callers
  /// that recycle() retired frontiers run allocation-free at steady state.
  template <Direction D = Direction::kForward, EdgeOperator Op>
  Frontier edge_map(Frontier& f, Op op) {
    Frontier out = engine::edge_map<D>(*graph_, f, std::move(op), workspace(),
                                       opts_, &stats_);
    ++sweeps_done_;
    return out;
  }

  /// Apply an edge operator over the transposed graph (data flows d→s).
  template <EdgeOperator Op>
  Frontier edge_map_transpose(Frontier& f, Op op) {
    return edge_map<Direction::kTranspose>(f, std::move(op));
  }

  /// Poll the options' cancellation token; throws sys::Cancelled when it has
  /// fired.  edge_map / edge_map_transpose poll implicitly; long vertex-only
  /// phases can call this directly.
  void poll_cancel() const { engine::poll_cancel(opts_.cancel.get()); }

  /// Number of edge-map sweeps that ran to completion on this engine — a
  /// proxy for iteration progress that needs no per-algorithm bookkeeping.
  /// A query cancelled mid-run reports this as its partial progress.
  [[nodiscard]] int sweeps_done() const { return sweeps_done_; }

  /// The engine's traversal scratch arena (borrowed when constructed with an
  /// external workspace, owned otherwise).  The owned workspace is created
  /// on first use, so engines bound to an external workspace — one per
  /// query on the service path — never allocate one.
  [[nodiscard]] TraversalWorkspace& workspace() {
    if (external_ws_ != nullptr) return *external_ws_;
    if (owned_ws_ == nullptr) owned_ws_ = std::make_unique<TraversalWorkspace>();
    return *owned_ws_;
  }

  /// Retire a frontier the caller no longer needs, donating its backing
  /// storage to the workspace so the next edge_map reuses it instead of
  /// allocating.  Iterative algorithms call this on the outgoing frontier
  /// just before overwriting it with the new one.
  void recycle(Frontier& f) { f.into_workspace(workspace()); }

  /// Declare the running algorithm's orientation (§III-D); it routes dense
  /// frontiers and picks the CSC computation-range balance criterion.
  void set_orientation(Orientation o) { opts_.orientation = o; }
  [[nodiscard]] Orientation orientation() const { return opts_.orientation; }

  /// Filtered vertex map over the active vertices.
  template <typename Fn>
  Frontier vertex_map(const Frontier& f, Fn&& fn) {
    return engine::vertex_map(*graph_, f, std::forward<Fn>(fn), workspace());
  }

  /// Unfiltered apply over the active vertices.
  template <typename Fn>
  void vertex_foreach(const Frontier& f, Fn&& fn) {
    engine::vertex_foreach(f, std::forward<Fn>(fn));
  }

  /// Apply over all |V| vertices.
  template <typename Fn>
  void vertex_foreach_all(Fn&& fn) {
    engine::vertex_foreach_all(graph_->num_vertices(), std::forward<Fn>(fn));
  }

  [[nodiscard]] const graph::Graph& graph() const { return *graph_; }
  [[nodiscard]] Options& options() { return opts_; }
  [[nodiscard]] const Options& options() const { return opts_; }

  [[nodiscard]] const TraversalStats& stats() const { return stats_; }
  void reset_stats() { stats_ = TraversalStats{}; }

  /// Multi-line human-readable statistics summary (kernel mix, time split,
  /// atomic vs non-atomic rounds).
  [[nodiscard]] std::string stats_report() const;

 private:
  const graph::Graph* graph_;
  Options opts_;
  TraversalStats stats_;
  int sweeps_done_ = 0;
  TraversalWorkspace* external_ws_ = nullptr;
  std::unique_ptr<TraversalWorkspace> owned_ws_;
};

}  // namespace grind::engine
