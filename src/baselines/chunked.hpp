// Shared traversal machinery for the baseline engines (Ligra, Polymer,
// GraphGrind-v1).
//
// All three baselines drive their dense iterations backward over the whole
// CSC (or, for the transpose, a gather over the whole CSR); they differ in
// how the vertex iteration space is *chunked* for scheduling:
//   * Ligra      — uniform fixed-size vertex chunks over [0, |V|)
//                  (the work-stealing granularity of cilk_for);
//   * Polymer    — 4 vertex-balanced NUMA partitions, each split into
//                  uniform chunks, chunks processed partition-major;
//   * GG-v1      — 4 NUMA partitions with *edge-balanced* chunks (its ICS'17
//                  load-balancing contribution).
//
// Chunk boundaries are multiples of 64 vertices so next-frontier bitmap
// words stay single-writer.
#pragma once

#include <vector>

#include "engine/direction.hpp"
#include "engine/operators.hpp"
#include "engine/traverse_csc.hpp"
#include "engine/traverse_csr.hpp"
#include "engine/workspace.hpp"
#include "frontier/frontier.hpp"
#include "graph/graph.hpp"
#include "sys/bitmap.hpp"
#include "sys/parallel.hpp"

namespace grind::baselines {

using engine::Direction;

/// Uniform chunks of `chunk` vertices (rounded to 64) covering [0, n).
std::vector<VertexRange> make_uniform_chunks(vid_t n, vid_t chunk);

/// Chunks covering [0, n) such that each holds ≈ `target_edges` edges of the
/// given adjacency (degree = offsets[v+1]-offsets[v]); boundaries rounded up
/// to multiples of 64.
std::vector<VertexRange> make_edge_balanced_chunks(const graph::Csr& adj,
                                                   eid_t target_edges);

/// Split [0, n) into `parts` vertex-balanced ranges first (the NUMA
/// partitions), then chunk each range uniformly — Polymer's scheme.
std::vector<VertexRange> make_partitioned_uniform_chunks(vid_t n, int parts,
                                                         vid_t chunk);

/// The Ligra direction decision all three baselines share: dense when
/// |F| + Σ deg⁺ exceeds |E|/20 (Ligra's threshold), else the sparse push.
[[nodiscard]] bool ligra_is_dense(eid_t weight, eid_t m);

/// One baseline edge map in direction D: the engine's sparse push below
/// Ligra's threshold, else the gather over D's gather index with an explicit
/// chunk list (single-writer destinations, no atomics; 64-aligned chunks
/// keep bitmap words single-writer).
template <Direction D, engine::EdgeOperator Op>
Frontier chunked_edge_map(const graph::Graph& g, Frontier& f, Op& op,
                          const std::vector<VertexRange>& chunks,
                          engine::TraversalWorkspace& ws) {
  if (f.empty()) return Frontier::empty(g.num_vertices());
  if (!ligra_is_dense(engine::direction_weight<D>(g, f), g.num_edges()))
    return engine::traverse_csr_sparse<D>(g, f, op, nullptr, ws);

  f.to_dense(ws);
  const graph::Csr& adj = engine::gather_index<D>(g);
  const Bitmap& in = f.bitmap();
  Bitmap next = ws.acquire_bitmap(g.num_vertices());
  parallel_for_dynamic(0, chunks.size(), [&](std::size_t c) {
    engine::gather_range(adj, in, op, chunks[c], BitSetter<false>{&next},
                         /*prefetch=*/false);
  });
  Frontier out = Frontier::from_bitmap(std::move(next));
  out.recount(&engine::push_index<D>(g));
  return out;
}

}  // namespace grind::baselines
