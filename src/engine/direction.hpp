// Traversal direction: forward flow s→d along each edge (s, d), or flow
// d→s over the transposed graph (Ligra's G.transpose(), used by the
// dependency-accumulation phase of betweenness centrality).
//
// The composite layouts serve both directions with one kernel set by
// swapping the roles of the two whole-graph indexes: the *push* index holds
// each vertex's outgoing edges in the traversal direction (CSR forward, CSC
// transposed) and the *gather* index its incoming ones (CSC forward, CSR
// transposed).  The partition-parallel layouts (COO, pruned CSR, PCPM bins)
// are partitioned by original destination, so they align update sets with
// forward flow only; transposed traversals take the sparse push or the
// single-writer gather.
#pragma once

#include "frontier/frontier.hpp"
#include "graph/graph.hpp"

namespace grind::engine {

enum class Direction { kForward, kTranspose };

/// Out-edges in direction D: the sparse push adjacency, and the degrees
/// Algorithm 2's frontier weight and Frontier::recount use.
template <Direction D>
const graph::Csr& push_index(const graph::Graph& g) {
  if constexpr (D == Direction::kForward) return g.csr();
  else return g.csc();
}

/// In-edges in direction D: the backward gather adjacency.
template <Direction D>
const graph::Csr& gather_index(const graph::Graph& g) {
  if constexpr (D == Direction::kForward) return g.csc();
  else return g.csr();
}

/// Algorithm 2's weight |F| + Σ deg over the active vertices, with degrees
/// taken in direction D.  Forward reads the frontier's cached statistic;
/// transposed recomputes against in-degrees, because transpose callers
/// (BC's level stack) hold frontiers recounted by forward sweeps.
template <Direction D>
eid_t direction_weight(const graph::Graph& g, const Frontier& f) {
  if constexpr (D == Direction::kForward) return f.traversal_weight();
  else return static_cast<eid_t>(f.num_active()) + f.degree_sum(g.csc());
}

}  // namespace grind::engine
