// Bellman-Ford single-source shortest paths (Table II: vertex-oriented).
//
// Frontier-driven relaxation: a vertex re-enters the frontier whenever its
// distance improves; termination when no distance changes (non-negative
// weights in the benchmark suite guarantee ≤ |V| rounds).
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "engine/operators.hpp"
#include "engine/options.hpp"
#include "engine/vertex_map.hpp"
#include "frontier/frontier.hpp"
#include "sys/atomics.hpp"
#include "sys/types.hpp"

namespace grind::graph {
class Graph;
}  // namespace grind::graph

namespace grind::algorithms {

inline constexpr double kUnreachable = std::numeric_limits<double>::infinity();

struct BellmanFordResult {
  std::vector<double> dist;  ///< kUnreachable if not reachable
  /// Edge-map rounds this run took.  Diagnostics, NOT deterministic: an
  /// atomic relaxation can carry an improvement several hops within one
  /// round, so identical inputs may drain the frontier in fewer or more
  /// rounds depending on thread interleaving.  dist itself always
  /// converges to the unique shortest-path values.
  int rounds = 0;
};

namespace detail {

struct BfOp : engine::CondTrue {
  double* dist;
  unsigned char* claimed;

  bool update(vid_t s, vid_t d, weight_t w) {
    const double cand = dist[s] + static_cast<double>(w);
    if (cand < dist[d]) {
      dist[d] = cand;
      if (claimed[d] == 0) {
        claimed[d] = 1;
        return true;
      }
    }
    return false;
  }
  bool update_atomic(vid_t s, vid_t d, weight_t w) {
    const double cand = dist[s] + static_cast<double>(w);
    if (atomic_write_min(dist[d], cand)) return atomic_claim(claimed[d]);
    return false;
  }
};

}  // namespace detail

template <typename Eng>
BellmanFordResult bellman_ford(Eng& eng, vid_t source) {
  const auto& g = eng.graph();
  const vid_t n = g.num_vertices();

  BellmanFordResult r;
  r.dist.assign(n, kUnreachable);
  if (n == 0) return r;

  const auto saved = eng.orientation();
  eng.set_orientation(engine::Orientation::kVertex);

  std::vector<unsigned char> claimed(n, 0);
  // `source` arrives in original-ID space; the traversal runs internal.
  const vid_t src = g.remap().to_internal(source);
  r.dist[src] = 0.0;
  Frontier frontier = Frontier::single(n, src, &g.csr());

  // Non-negative weights ⇒ at most |V| rounds; cap defensively anyway.
  while (!frontier.empty() && r.rounds < static_cast<int>(n) + 1) {
    Frontier next =
        eng.edge_map(frontier, detail::BfOp{{}, r.dist.data(), claimed.data()});
    ++r.rounds;
    engine::vertex_foreach(next, [&](vid_t v) { claimed[v] = 0; });
    if constexpr (requires { eng.recycle(frontier); }) eng.recycle(frontier);
    frontier = std::move(next);
  }

  eng.set_orientation(saved);
  r.dist = g.remap().values_to_original(std::move(r.dist));
  return r;
}

}  // namespace grind::algorithms
