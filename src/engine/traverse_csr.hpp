// Sparse push traversal over the whole-graph CSR (Algorithm 2, line 6); the
// transposed direction pushes over the CSC the same way.
//
// "When the frontier is sparse ... there is little point in partitioning the
// graph" (§III-A1): the kernel iterates only the active sources from the
// sparse list, visits their out-edges, and applies the operator's *atomic*
// update — destinations are hit by arbitrary threads, so this is the one
// kernel that inherently needs hardware atomics.
//
// Each thread owns one contiguous slice of the frontier list, in list order,
// balanced by edge weight Σ(1 + deg) rather than by vertex count.  Frontiers
// the push returns above a small size are id-ordered (below), so a slice is
// a compact id range, and the source rows, the destinations' state and the
// claim flags a thread touches stay on its own core from sweep to sweep —
// the locality argument of §III applied to the one kernel that cannot be
// partitioned by destination.  The split has two levels: the list is cut
// into kSliceBlocksPerThread count-blocks per thread, each thread weighs its
// own blocks, and after one barrier every thread takes the run of whole
// blocks whose weight midpoints fall in its share of the total.  The bounds
// are kept in the thread's ThreadSlot.
//
// The output frontier is built from per-thread state: each thread collects
// the destinations its updates activated (update_atomic returning true
// claims the destination exactly once, the Ligra contract) in its own
// cache-line-padded ThreadSlot, together with their degree sum, so the
// output's |F| and Σ deg are known without a recount pass.
// Frontier::from_thread_slots returns the slot lists as an id-sorted list
// when they hold more vertices than the bitmap has words, and concatenated
// below that (frontier.hpp).
#pragma once

#include <omp.h>

#include <algorithm>
#include <cstddef>
#include <tuple>
#include <utility>

#include "engine/direction.hpp"
#include "engine/operators.hpp"
#include "engine/workspace.hpp"
#include "frontier/frontier.hpp"
#include "graph/graph.hpp"
#include "sys/parallel.hpp"

namespace grind::engine {

/// Count-blocks per thread in the sparse push's slice split.  More blocks
/// balance a skewed frontier more finely; each costs one weight per sweep.
inline constexpr std::size_t kSliceBlocksPerThread = 8;

/// Thread t's slice [begin, end) of an n-entry list cut into `blocks`
/// count-blocks (block b spans [n·b/blocks, n·(b+1)/blocks)) weighing
/// `weight[b]`.  Block b goes to the thread whose 1/team share of the total
/// weight holds the block's weight midpoint; owners never decrease with b,
/// so every thread gets one run of whole blocks, possibly empty, and the
/// slices of threads 0..team-1 tile [0, n) in order.
inline std::pair<std::size_t, std::size_t> owned_slice(
    const eid_t* weight, std::size_t blocks, std::size_t n, std::size_t t,
    std::size_t team) {
  eid_t total = 0;
  for (std::size_t b = 0; b < blocks; ++b) total += weight[b];
  if (total == 0) return {0, 0};
  std::size_t first = blocks;  // first block owned by a thread ≥ t
  std::size_t last = blocks;   // first block owned by a thread > t
  eid_t before = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t owner = std::min<std::size_t>(
        team - 1, static_cast<std::size_t>((2 * before + weight[b]) * team /
                                           (2 * total)));
    if (owner >= t && first == blocks) first = b;
    if (owner > t) {
      last = b;
      break;
    }
    before += weight[b];
  }
  return {n * first / blocks, n * last / blocks};
}

/// Direction D picks the push index (engine/direction.hpp): forward pushes
/// along CSR out-edges, transposed along CSC in-edges.  There is no
/// software prefetch: over an id-ordered frontier the next source's row
/// follows in memory, and Bellman-Ford on a 720² lattice ran no slower
/// without the row and target prefetches than with them (docs/ENGINE.md).
template <Direction D = Direction::kForward, EdgeOperator Op>
Frontier traverse_csr_sparse(const graph::Graph& g, Frontier& f, Op& op,
                             eid_t* edges_examined, TraversalWorkspace& ws) {
  f.to_sparse(ws);
  const graph::Csr& adj = push_index<D>(g);
  const auto verts = f.vertices();
  const auto nt = static_cast<std::size_t>(num_threads());
  auto& slots = ws.thread_slots(nt, g.num_vertices());
  eid_t* const block_weight =
      ws.edge_counters(kSliceBlocksPerThread * nt).data();

#pragma omp parallel num_threads(static_cast<int>(nt))
  {
    // The team may be smaller than nt; the split uses the team it got.
    const auto team = static_cast<std::size_t>(omp_get_num_threads());
    const auto t = static_cast<std::size_t>(omp_get_thread_num());
    const std::size_t blocks = kSliceBlocksPerThread * team;
    for (std::size_t b = t * kSliceBlocksPerThread;
         b < (t + 1) * kSliceBlocksPerThread; ++b) {
      eid_t weight = 0;
      for (std::size_t i = verts.size() * b / blocks;
           i < verts.size() * (b + 1) / blocks; ++i)
        weight += 1 + adj.degree(verts[i]);
      block_weight[b] = weight;
    }
#pragma omp barrier
    ThreadSlot& slot = slots[t];
    std::tie(slot.begin, slot.end) =
        owned_slice(block_weight, blocks, verts.size(), t, team);
    // This thread's private copy of the operator (operators.hpp).
    Op local = op;
    eid_t edges = 0;
    eid_t degree = 0;
    for (std::size_t i = slot.begin; i < slot.end; ++i) {
      const vid_t s = verts[i];
      const auto neigh = adj.neighbors(s);
      const auto wts = adj.weights(s);
      edges += neigh.size();
      for (std::size_t j = 0; j < neigh.size(); ++j) {
        const vid_t d = neigh[j];
        if (local.cond(d) && local.update_atomic(s, d, wts[j])) {
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
  // The output list is pooled: ownership moves into the frontier and
  // returns via Frontier::into_workspace.
  return Frontier::from_thread_slots(g.num_vertices(), slots, nt, ws,
                                     /*id_order=*/true);
}

}  // namespace grind::engine
