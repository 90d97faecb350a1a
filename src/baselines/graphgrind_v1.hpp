// GraphGrind-v1 baseline engine ("GG-v1" in Figs 9–10).
//
// The paper's previous system (Sun, Vandierendonck & Nikolopoulos, ICS'17):
// like Polymer it keeps 4 NUMA partitions of CSR/CSC only (no COO, no
// Algorithm 2), but its contribution is *load balancing* — traversal chunks
// are balanced by edge count rather than vertex count, which removes the
// skew-induced straggler chunks of Ligra/Polymer on power-law graphs.
#pragma once

#include "baselines/chunked.hpp"
#include "engine/operators.hpp"
#include "engine/options.hpp"
#include "engine/vertex_map.hpp"
#include "frontier/frontier.hpp"
#include "graph/graph.hpp"
#include "sys/parallel.hpp"

namespace grind::baselines {

class GraphGrindV1Engine {
 public:
  explicit GraphGrindV1Engine(const graph::Graph& g) : g_(&g) {
    // Edge-balanced chunks: ~8 chunks per thread for dynamic smoothing.
    const eid_t target = std::max<eid_t>(
        1, g.num_edges() / (static_cast<eid_t>(num_threads()) * 8));
    backward_chunks_ = make_edge_balanced_chunks(g.csc(), target);
    forward_chunks_ = make_edge_balanced_chunks(g.csr(), target);
  }

  [[nodiscard]] const graph::Graph& graph() const { return *g_; }
  [[nodiscard]] static const char* name() { return "GraphGrind-v1"; }

  void set_orientation(engine::Orientation o) { orientation_ = o; }
  [[nodiscard]] engine::Orientation orientation() const {
    return orientation_;
  }

  template <engine::EdgeOperator Op>
  Frontier edge_map(Frontier& f, Op op) {
    return chunked_edge_map<Direction::kForward>(*g_, f, op,
                                                 backward_chunks_, ws_);
  }

  template <engine::EdgeOperator Op>
  Frontier edge_map_transpose(Frontier& f, Op op) {
    return chunked_edge_map<Direction::kTranspose>(*g_, f, op,
                                                   forward_chunks_, ws_);
  }

  template <typename Fn>
  Frontier vertex_map(const Frontier& f, Fn&& fn) {
    return engine::vertex_map(*g_, f, std::forward<Fn>(fn), ws_);
  }

 private:
  const graph::Graph* g_;
  std::vector<VertexRange> backward_chunks_;  // edge-balanced over CSC
  std::vector<VertexRange> forward_chunks_;   // edge-balanced over CSR
  engine::Orientation orientation_ = engine::Orientation::kEdge;
  engine::TraversalWorkspace ws_;  // reusable kernel scratch
};

}  // namespace grind::baselines
