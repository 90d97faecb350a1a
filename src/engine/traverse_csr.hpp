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
// true claims the destination exactly once, the Ligra contract), and the
// per-thread buffers are concatenated.
#pragma once

#include <omp.h>

#include <vector>

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
  const int nt = num_threads();
  auto& buffers = ws.thread_buffers(static_cast<std::size_t>(nt));
  auto& edge_counts = ws.edge_counters(static_cast<std::size_t>(nt));

#pragma omp parallel num_threads(nt)
  {
    const auto t = static_cast<std::size_t>(omp_get_thread_num());
    auto& buf = buffers[t];
    eid_t local_edges = 0;
#pragma omp for schedule(dynamic, 16) nowait
    for (std::size_t i = 0; i < verts.size(); ++i) {
      const vid_t s = verts[i];
      if (prefetch && i + 1 < verts.size())
        __builtin_prefetch(&offsets[verts[i + 1]]);
      const auto neigh = adj.neighbors(s);
      const auto wts = adj.weights(s);
      local_edges += neigh.size();
      for (std::size_t j = 0; j < neigh.size(); ++j) {
        if (prefetch && j + kCsrPrefetchDist < neigh.size())
          __builtin_prefetch(&neigh[j + kCsrPrefetchDist]);
        const vid_t d = neigh[j];
        if (op.cond(d) && op.update_atomic(s, d, wts[j])) buf.push_back(d);
      }
    }
    edge_counts[t] = local_edges;
  }

  if (edges_examined != nullptr) {
    eid_t total = 0;
    for (std::size_t t = 0; t < static_cast<std::size_t>(nt); ++t)
      total += edge_counts[t];
    *edges_examined = total;
  }

  // Concatenate per-thread buffers into one sparse list (recycled capacity;
  // ownership moves into the frontier and returns via
  // Frontier::into_workspace).
  std::size_t total_active = 0;
  for (std::size_t t = 0; t < static_cast<std::size_t>(nt); ++t)
    total_active += buffers[t].size();
  std::vector<vid_t> next = ws.acquire_vertex_list();
  next.reserve(total_active);
  for (std::size_t t = 0; t < static_cast<std::size_t>(nt); ++t)
    next.insert(next.end(), buffers[t].begin(), buffers[t].end());

  return Frontier::from_vertices(g.num_vertices(), std::move(next), &adj);
}

}  // namespace grind::engine
