// Ligra baseline engine ("L" in Figs 9–10).
//
// Re-implementation of Ligra's traversal policy (Shun & Blelloch, PPoPP'13)
// over this repository's substrate:
//   * two whole-graph layouts only (CSR + CSC), no partitioning;
//   * direction switching at |F| + Σ deg⁺ > |E|/20: below → sparse forward
//     push with atomics, above → dense backward gather parallelised over
//     uniform vertex chunks (cilk_for granularity), which load-balances by
//     *vertices* — the imbalance on skewed graphs that GraphGrind-v1 fixes;
//   * no NUMA awareness, no atomic elision beyond what backward gather gives
//     structurally.
#pragma once

#include "baselines/chunked.hpp"
#include "engine/operators.hpp"
#include "engine/options.hpp"
#include "engine/vertex_map.hpp"
#include "frontier/frontier.hpp"
#include "graph/graph.hpp"

namespace grind::baselines {

class LigraEngine {
 public:
  explicit LigraEngine(const graph::Graph& g)
      : g_(&g), chunks_(make_uniform_chunks(g.num_vertices(), kChunkVertices)) {}

  [[nodiscard]] const graph::Graph& graph() const { return *g_; }
  [[nodiscard]] static const char* name() { return "Ligra"; }

  void set_orientation(engine::Orientation o) { orientation_ = o; }
  [[nodiscard]] engine::Orientation orientation() const {
    return orientation_;
  }

  template <engine::EdgeOperator Op>
  Frontier edge_map(Frontier& f, Op op) {
    return chunked_edge_map<Direction::kForward>(*g_, f, op, chunks_, ws_);
  }

  template <engine::EdgeOperator Op>
  Frontier edge_map_transpose(Frontier& f, Op op) {
    return chunked_edge_map<Direction::kTranspose>(*g_, f, op, chunks_, ws_);
  }

  template <typename Fn>
  Frontier vertex_map(const Frontier& f, Fn&& fn) {
    return engine::vertex_map(*g_, f, std::forward<Fn>(fn), ws_);
  }

  /// Ligra's work-stealing grain: vertices per schedulable chunk.
  static constexpr vid_t kChunkVertices = 256;

 private:
  const graph::Graph* g_;
  std::vector<VertexRange> chunks_;
  engine::Orientation orientation_ = engine::Orientation::kEdge;
  engine::TraversalWorkspace ws_;  // reusable kernel scratch
};

}  // namespace grind::baselines
