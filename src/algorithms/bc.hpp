// Single-source betweenness centrality, Ligra-style (Table II: vertex-
// oriented).  Two phases over the same engine:
//
//   forward  — BFS from the source accumulating σ (number of shortest
//              paths) per vertex and recording each level's frontier;
//   backward — Brandes' dependency accumulation δ(v) = Σ_{u ∈ succ(v)}
//              σ(v)/σ(u) · (1 + δ(u)), processed level by level in reverse
//              via the engine's transpose edge map.
#pragma once

#include <cstdint>
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

struct BcResult {
  /// Dependency score of each vertex for this source (the single-source
  /// betweenness contribution).
  std::vector<double> dependency;
  /// Number of shortest paths from the source.
  std::vector<double> sigma;
  /// BFS level from the source; -1 if unreached.
  std::vector<std::int64_t> level;
  int rounds = 0;  ///< forward + backward edge-map rounds
};

namespace detail {

/// Forward phase: accumulate σ along BFS tree edges; first touch claims the
/// destination for the next level.
struct BcForwardOp {
  double* sigma;
  const unsigned char* visited;
  unsigned char* claimed;

  bool update(vid_t s, vid_t d, weight_t) {
    sigma[d] += sigma[s];
    if (claimed[d] == 0) {
      claimed[d] = 1;
      return true;
    }
    return false;
  }
  bool update_atomic(vid_t s, vid_t d, weight_t) {
    atomic_add(sigma[d], sigma[s]);
    return atomic_claim(claimed[d]);
  }
  [[nodiscard]] bool cond(vid_t d) const { return visited[d] == 0; }
};

/// Backward phase (runs on the transpose): active u at level ℓ+1 push
/// dependency to predecessors v at level ℓ.
struct BcBackwardOp {
  const double* sigma;
  double* dependency;
  const std::int64_t* level;
  std::int64_t target_level;

  bool update(vid_t u, vid_t v, weight_t) {
    dependency[v] += sigma[v] / sigma[u] * (1.0 + dependency[u]);
    return false;
  }
  bool update_atomic(vid_t u, vid_t v, weight_t) {
    atomic_add(dependency[v], sigma[v] / sigma[u] * (1.0 + dependency[u]));
    return false;
  }
  [[nodiscard]] bool cond(vid_t v) const { return level[v] == target_level; }
};

}  // namespace detail

template <typename Eng>
BcResult betweenness_centrality(Eng& eng, vid_t source) {
  const auto& g = eng.graph();
  const vid_t n = g.num_vertices();

  BcResult r;
  r.dependency.assign(n, 0.0);
  r.sigma.assign(n, 0.0);
  r.level.assign(n, -1);
  if (n == 0) return r;

  const auto saved = eng.orientation();
  eng.set_orientation(engine::Orientation::kVertex);

  std::vector<unsigned char> visited(n, 0);
  std::vector<unsigned char> claimed(n, 0);
  // `source` arrives in original-ID space; both sweeps run internal.
  const vid_t src = g.remap().to_internal(source);
  r.sigma[src] = 1.0;
  r.level[src] = 0;
  visited[src] = 1;

  // Forward sweep, recording every level's frontier for the reverse pass.
  std::vector<Frontier> levels;
  levels.push_back(Frontier::single(n, src, &g.csr()));
  std::int64_t depth = 0;
  while (!levels.back().empty()) {
    ++depth;
    Frontier next = eng.edge_map(
        levels.back(),
        detail::BcForwardOp{r.sigma.data(), visited.data(), claimed.data()});
    ++r.rounds;
    engine::vertex_foreach(next, [&](vid_t v) {
      visited[v] = 1;
      r.level[v] = depth;
    });
    levels.push_back(std::move(next));
  }
  levels.pop_back();  // drop the final empty frontier

  // Reverse sweep: for ℓ = max-1 … 0, vertices at ℓ+1 push to level ℓ.
  // Each level's frontier is recycled as soon as the sweep is done with it:
  // the forward pass pinned one bitmap per level, so returning them keeps
  // the workspace pool warm for the transpose kernels' output frontiers.
  for (std::size_t l = levels.size(); l-- > 1;) {
    detail::BcBackwardOp op{r.sigma.data(), r.dependency.data(),
                            r.level.data(),
                            static_cast<std::int64_t>(l) - 1};
    Frontier out = eng.edge_map_transpose(levels[l], op);
    ++r.rounds;
    if constexpr (requires { eng.recycle(out); }) {
      eng.recycle(out);
      eng.recycle(levels[l]);
    }
  }
  // Levels 1..max were recycled in the sweep; only the source level remains.
  if constexpr (requires { eng.recycle(levels[0]); }) eng.recycle(levels[0]);

  eng.set_orientation(saved);
  r.dependency = g.remap().values_to_original(std::move(r.dependency));
  r.sigma = g.remap().values_to_original(std::move(r.sigma));
  r.level = g.remap().values_to_original(std::move(r.level));
  return r;
}

}  // namespace grind::algorithms
