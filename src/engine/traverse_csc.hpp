// Medium-dense backward traversal (Algorithm 2, line 4): the whole-graph CSC
// with a *partitioned computation range*.  The transposed direction gathers
// over the whole-graph CSR the same way, per original source vertex.
//
// Partitioning-by-destination leaves CSC edge order unchanged (§II-C), so
// the index is unpartitioned; what is partitioned is the iteration space:
// each task owns one partition's destination range, giving (a) edge- or
// vertex-balanced load depending on the algorithm's orientation (§III-D) and
// (b) single-writer destinations — no atomics (§IV-B: "in BFS there is no
// need to use atomics in the CSC case as it uses a backward edge traversal").
//
// Per destination d with cond(d) true, in-edges are scanned; once an update
// deactivates cond(d) the scan breaks early (the direction-optimising trick
// of Beamer et al. that makes backward traversal cheap on dense frontiers).
#pragma once

#include "engine/direction.hpp"
#include "engine/domain_sched.hpp"
#include "engine/operators.hpp"
#include "engine/workspace.hpp"
#include "frontier/frontier.hpp"
#include "graph/graph.hpp"
#include "partition/partitioner.hpp"
#include "sys/bitmap.hpp"
#include "sys/cancel.hpp"
#include "sys/parallel.hpp"

namespace grind::engine {

/// NUMA domain of one CSC sub-chunk, resolved against the partitioning the
/// *pages* were placed by — the edge-balanced one (builder.cpp
/// place_csr_domains) — which may differ from the partitioning whose
/// sub-chunks drive the computation split (vertex-balanced for
/// vertex-oriented algorithms).  A vertex-balanced chunk can straddle an
/// edge-partition boundary; its begin vertex decides, matching the page
/// granularity of the placement itself.
inline int csc_chunk_domain(const partition::Partitioning& storage_parts,
                            const NumaModel& numa, const VertexRange& chunk) {
  if (chunk.begin >= storage_parts.num_vertices()) return 0;  // degenerate
  return numa.domain_of_partition(storage_parts.partition_of(chunk.begin),
                                  storage_parts.num_partitions());
}

/// The partitioning's ranges split into word-aligned sub-chunks — now a
/// build-time-cached property of the Partitioning itself.
inline const std::vector<VertexRange>& csc_sub_chunks(
    const partition::Partitioning& ranges) {
  return ranges.sub_chunks();
}

/// Lookahead distance (in edges) of the backward gather's frontier-word
/// prefetch: the inner loop's demand miss is `in.get(s)` — one random
/// bitmap word per in-edge — so the word of the source `kCscPrefetchDist`
/// slots ahead is prefetched while the current edges are applied.
inline constexpr std::size_t kCscPrefetchDist = 8;

/// Gather into the destinations of `r` over the in-edges `adj` holds: per
/// destination d with cond(d), apply every edge from an active source and
/// stop once cond(d) turns false; `mark(d)` records activations.  Returns
/// the edges examined.  d is the only writer of its own state, so the
/// updates need no atomics; the baseline engines share this loop.
template <EdgeOperator Op, typename Mark>
eid_t gather_range(const graph::Csr& adj, const Bitmap& in, Op& op,
                   VertexRange r, Mark mark, bool prefetch) {
  const std::uint64_t* in_words = in.words();
  eid_t edges = 0;
  for (vid_t d = r.begin; d < r.end; ++d) {
    if (!op.cond(d)) continue;
    const auto neigh = adj.neighbors(d);
    const auto wts = adj.weights(d);
    for (std::size_t j = 0; j < neigh.size(); ++j) {
      ++edges;
      if (prefetch && j + kCscPrefetchDist < neigh.size())
        __builtin_prefetch(&in_words[neigh[j + kCscPrefetchDist] >> 6]);
      const vid_t s = neigh[j];
      if (!in.get(s)) continue;
      if (op.update(s, d, wts[j])) mark(d);
      if (!op.cond(d)) break;  // destination saturated; skip remaining
    }
  }
  return edges;
}

/// Direction D picks the gather index (engine/direction.hpp): forward
/// gathers over CSC in-edges, transposed over CSR out-edges.  Either way
/// the work items are the sub-chunks of `ranges`.  `cancel`, when non-null,
/// is polled once per sub-chunk; a fired token drains the sweep (see
/// traverse_coo.hpp).
template <Direction D = Direction::kForward, EdgeOperator Op>
Frontier traverse_csc_backward(const graph::Graph& g, Frontier& f, Op& op,
                               const partition::Partitioning& ranges,
                               eid_t* edges_examined, TraversalWorkspace& ws,
                               AffineCounts* affinity = nullptr,
                               const sys::CancelToken* cancel = nullptr,
                               bool prefetch = false) {
  f.to_dense(ws);
  const graph::Csr& adj = gather_index<D>(g);
  const NumaModel& numa = g.numa();
  const Bitmap& in = f.bitmap();
  Bitmap next = ws.acquire_bitmap(g.num_vertices());
  const std::vector<VertexRange>& chunks = ranges.sub_chunks();
  auto& edge_counts = ws.edge_counters(chunks.size());

  // Chunks come from `ranges` (the balance criterion of the running
  // algorithm); their domains come from the edge-balanced partitioning the
  // CSR/CSC pages were placed by.  Sub-chunks start at partition
  // boundaries, so they share bitmap words unless those are word-aligned.
  const partition::Partitioning& storage_parts = g.partitioning_edges();
  const AffineCounts counts = with_bit_setter(
      next, !ranges.word_aligned(), [&](auto mark) {
        return affine_for(
            numa, /*owner=*/&g, /*token=*/&chunks, chunks.size(),
            ws.domain_schedules(),
            [&](std::size_t c) {
              return csc_chunk_domain(storage_parts, numa, chunks[c]);
            },
            [&](std::size_t c) {
              // Fired token: drain the sweep without work; edge_map
              // re-checks and discards the partial frontier (bodies must
              // not throw here).
              if (cancel != nullptr && cancel->should_stop()) {
                edge_counts[c] = 0;
                return std::uint64_t{0};
              }
              edge_counts[c] =
                  gather_range(adj, in, op, chunks[c], mark, prefetch);
              return static_cast<std::uint64_t>(edge_counts[c]);
            });
      });
  if (affinity != nullptr) affinity->merge(counts);

  if (edges_examined != nullptr) {
    eid_t total = 0;
    for (eid_t c : edge_counts) total += c;
    *edges_examined = total;
  }

  Frontier out = Frontier::from_bitmap(std::move(next));
  out.recount(&push_index<D>(g));
  return out;
}

}  // namespace grind::engine
