// Breadth-first search (Table II: vertex-oriented).
//
// Parent-claiming BFS in the Ligra style: a destination is claimed exactly
// once per execution (CAS on the parent array in atomic kernels, plain
// test-and-write in single-writer kernels).  The engine's Algorithm-2
// decision gives the direction-optimising behaviour of Beamer et al. for
// free: wide middle frontiers run backward over the CSC, narrow ones run
// forward over the CSR.
//
// The algorithm is a template over the traversal engine so the same code
// runs on GraphGrind-v2 and on the Ligra / Polymer / GraphGrind-v1 baseline
// engines (Fig 9).
#pragma once

#include <cstdint>
#include <vector>

#include "engine/operators.hpp"
#include "engine/options.hpp"
#include "frontier/frontier.hpp"
#include "sys/atomics.hpp"
#include "sys/types.hpp"

namespace grind::graph {
class Graph;
}  // namespace grind::graph

namespace grind::algorithms {

struct BfsResult {
  /// parent[v] = predecessor on a shortest (hop-count) path; source's parent
  /// is itself; kInvalidVertex if unreached.
  std::vector<vid_t> parent;
  /// level[v] = hop distance from the source; -1 if unreached.
  std::vector<std::int64_t> level;
  /// Number of reached vertices (including the source).
  vid_t reached = 0;
  /// Number of edge-map rounds executed.
  int rounds = 0;
};

namespace detail {

/// Claims d for the first source to reach it; the unique winner also
/// records d's level, so no pass over the output frontier is needed.
struct BfsOp {
  vid_t* parent;
  std::int64_t* level;
  std::int64_t depth;

  bool update(vid_t s, vid_t d, weight_t) {
    if (parent[d] == kInvalidVertex) {
      parent[d] = s;
      level[d] = depth;
      return true;
    }
    return false;
  }
  bool update_atomic(vid_t s, vid_t d, weight_t) {
    if (!atomic_cas(parent[d], kInvalidVertex, s)) return false;
    level[d] = depth;
    return true;
  }
  [[nodiscard]] bool cond(vid_t d) const {
    return parent[d] == kInvalidVertex;
  }
};

}  // namespace detail

/// Run BFS from `source` on any traversal engine.  `source` and the result
/// arrays are in original-ID space; the graph's VertexRemap translates at
/// this boundary.
template <typename Eng>
BfsResult bfs(Eng& eng, vid_t source) {
  const auto& g = eng.graph();
  const vid_t n = g.num_vertices();

  BfsResult r;
  r.parent.assign(n, kInvalidVertex);
  r.level.assign(n, -1);
  if (n == 0) return r;

  const auto saved = eng.orientation();
  eng.set_orientation(engine::Orientation::kVertex);

  const vid_t src = g.remap().to_internal(source);
  r.parent[src] = src;
  r.level[src] = 0;
  r.reached = 1;

  Frontier frontier = Frontier::single(n, src, &g.csr());
  std::int64_t depth = 0;
  while (!frontier.empty()) {
    ++depth;
    Frontier next = eng.edge_map(
        frontier, detail::BfsOp{r.parent.data(), r.level.data(), depth});
    ++r.rounds;
    r.reached += next.num_active();
    // Retire the outgoing frontier into the engine's workspace so its
    // bitmap/list storage ping-pongs with the next level instead of being
    // freed and re-allocated.
    if constexpr (requires { eng.recycle(frontier); }) eng.recycle(frontier);
    frontier = std::move(next);
  }

  eng.set_orientation(saved);
  r.parent = g.remap().ids_to_original(std::move(r.parent));
  r.level = g.remap().values_to_original(std::move(r.level));
  return r;
}

}  // namespace grind::algorithms
