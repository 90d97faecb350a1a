// Sparse push traversal over the whole-graph CSR (Algorithm 2, line 6); the
// transposed direction pushes over the CSC the same way.
//
// "When the frontier is sparse ... there is little point in partitioning the
// graph" (§III-A1): the kernel iterates only the active sources from the
// sparse list, visits their out-edges, and applies the operator's *atomic*
// update — destinations are hit by arbitrary threads, so this is the one
// kernel that inherently needs hardware atomics.
//
// The output frontier is produced directly in sparse form: each thread
// collects the destinations its updates activated (update_atomic returning
// true claims the destination exactly once, the Ligra contract) in its own
// cache-line-padded ThreadSlot, together with their degree sum, and the
// slot lists are concatenated.  The output's |F| and Σ deg are therefore
// known without a recount pass.
#pragma once

#include <omp.h>

#include "engine/direction.hpp"
#include "engine/operators.hpp"
#include "engine/workspace.hpp"
#include "frontier/frontier.hpp"
#include "graph/graph.hpp"
#include "sys/parallel.hpp"

namespace grind::engine {

/// Lookahead distance (in edges) of the software-prefetch path — far enough
/// to cover a memory round-trip at one edge per few cycles, near enough to
/// stay inside the typical active row.
inline constexpr std::size_t kCsrPrefetchDist = 16;

/// Direction D picks the push index (engine/direction.hpp): forward pushes
/// along CSR out-edges, transposed along CSC in-edges.  `prefetch`, when
/// set (Options::prefetch via edge_map), issues __builtin_prefetch for the
/// *next* active source's row bounds in the outer loop and for upcoming
/// target entries in the inner loop — the two demand-miss streams of the
/// sparse push: row starts are random (sparse list order) and the target
/// array is only sequential within a row.
template <Direction D = Direction::kForward, EdgeOperator Op>
Frontier traverse_csr_sparse(const graph::Graph& g, Frontier& f, Op& op,
                             eid_t* edges_examined, TraversalWorkspace& ws,
                             bool prefetch = false) {
  f.to_sparse(ws);
  const graph::Csr& adj = push_index<D>(g);
  const auto offsets = adj.offsets();
  const auto verts = f.vertices();
  const auto nt = static_cast<std::size_t>(num_threads());
  auto& slots = ws.thread_slots(nt, g.num_vertices());

#pragma omp parallel num_threads(static_cast<int>(nt))
  {
    ThreadSlot& slot = slots[static_cast<std::size_t>(omp_get_thread_num())];
    eid_t edges = 0;
    eid_t degree = 0;
#pragma omp for schedule(dynamic, 16) nowait
    for (std::size_t i = 0; i < verts.size(); ++i) {
      const vid_t s = verts[i];
      if (prefetch && i + 1 < verts.size())
        __builtin_prefetch(&offsets[verts[i + 1]]);
      const auto neigh = adj.neighbors(s);
      const auto wts = adj.weights(s);
      edges += neigh.size();
      for (std::size_t j = 0; j < neigh.size(); ++j) {
        if (prefetch && j + kCsrPrefetchDist < neigh.size())
          __builtin_prefetch(&neigh[j + kCsrPrefetchDist]);
        const vid_t d = neigh[j];
        if (op.cond(d) && op.update_atomic(s, d, wts[j])) {
          slot.list.push_back(d);
          degree += adj.degree(d);
        }
      }
    }
    slot.edges = edges;
    slot.degree = degree;
  }

  if (edges_examined != nullptr) {
    eid_t total = 0;
    for (std::size_t t = 0; t < nt; ++t) total += slots[t].edges;
    *edges_examined = total;
  }
  // The concatenated list is pooled: ownership moves into the frontier and
  // returns via Frontier::into_workspace.
  return Frontier::from_thread_slots(g.num_vertices(), slots, nt, ws);
}

}  // namespace grind::engine
