// Polymer baseline engine ("P" in Figs 9–10).
//
// Re-implementation of Polymer's traversal policy (Zhang, Chen & Chen,
// PPoPP'15) over this repository's substrate: the graph is split into one
// partition per NUMA domain (4), partitions are *vertex-balanced* (Polymer
// distributes vertices evenly and does not prune zero-degree vertices,
// §II-E), and dense traversals process each partition's destination range
// with that domain's threads.  Sparse traversals push forward with atomics,
// as in Ligra.
//
// The logical NUMA model captures Polymer's scheduling (partition-major
// chunk order = domain-affine processing); physical page placement is the
// one aspect this environment cannot measure (DESIGN.md §1).
#pragma once

#include "baselines/chunked.hpp"
#include "engine/operators.hpp"
#include "engine/options.hpp"
#include "engine/vertex_map.hpp"
#include "frontier/frontier.hpp"
#include "graph/graph.hpp"
#include "sys/numa.hpp"

namespace grind::baselines {

class PolymerEngine {
 public:
  explicit PolymerEngine(const graph::Graph& g,
                         int numa_domains = NumaModel::kDefaultDomains)
      : g_(&g),
        chunks_(make_partitioned_uniform_chunks(g.num_vertices(), numa_domains,
                                                kChunkVertices)) {}

  [[nodiscard]] const graph::Graph& graph() const { return *g_; }
  [[nodiscard]] static const char* name() { return "Polymer"; }

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

  static constexpr vid_t kChunkVertices = 256;

 private:
  const graph::Graph* g_;
  std::vector<VertexRange> chunks_;
  engine::Orientation orientation_ = engine::Orientation::kEdge;
  engine::TraversalWorkspace ws_;  // reusable kernel scratch
};

}  // namespace grind::baselines
