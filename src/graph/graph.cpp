#include "graph/graph.hpp"

#include <utility>

#include "graph/builder.hpp"

namespace grind::graph {

Graph Graph::build(EdgeList el, BuildOptions opts) {
  // Monolithic entry point kept for the common case; the staged pipeline
  // lives in GraphBuilder.
  return GraphBuilder(std::move(el), std::move(opts)).build();
}

vid_t Graph::max_out_degree_source() const {
  vid_t best = 0;
  for (vid_t v = 1; v < num_vertices(); ++v) {
    const eid_t dv = out_degree(v);
    const eid_t db = out_degree(best);
    if (dv > db || (dv == db && to_original(v) < to_original(best))) best = v;
  }
  return to_original(best);
}

}  // namespace grind::graph
