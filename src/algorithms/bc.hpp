// Single-source betweenness centrality, Ligra-style (Table II: vertex-
// oriented).  Two phases over the same engine:
//
//   forward  — BFS from the source accumulating σ (number of shortest
//              paths) per vertex and recording each level's frontier;
//   backward — Brandes' dependency accumulation δ(v) = Σ_{u ∈ succ(v)}
//              σ(v)/σ(u) · (1 + δ(u)), processed level by level in reverse
//              as a pull: each vertex v of level ℓ reads its CSR out-
//              neighbours at level ℓ+1 and writes δ(v) once.  One writer
//              per vertex needs no atomics, and summing in CSR order makes
//              δ the same at every thread count (§III-C's single-writer
//              argument, applied without partitioning).
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
  /// Forward edge-map sweeps plus backward pull levels.
  int rounds = 0;
};

namespace detail {

/// Forward phase: accumulate σ along BFS tree edges; the level array is
/// the claim.  A destination is open while it is unreached or was reached
/// in this sweep (level == depth), so every predecessor at depth − 1 adds
/// to σ(d), and the first to reach d records its level.
struct BcForwardOp {
  double* sigma;
  std::int64_t* level;
  std::int64_t depth;

  bool update(vid_t s, vid_t d, weight_t) {
    sigma[d] += sigma[s];
    if (level[d] < 0) {
      level[d] = depth;
      return true;
    }
    return false;
  }
  bool update_atomic(vid_t s, vid_t d, weight_t) {
    atomic_add(sigma[d], sigma[s]);
    return atomic_cas(level[d], std::int64_t{-1}, depth);
  }
  // Relaxed load: update_atomic CASes the same word from other threads.
  [[nodiscard]] bool cond(vid_t d) const {
    const std::int64_t l = atomic_load(level[d]);
    return l < 0 || l == depth;
  }
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

  // `source` arrives in original-ID space; both phases run internal.
  const vid_t src = g.remap().to_internal(source);
  r.sigma[src] = 1.0;
  r.level[src] = 0;

  // Forward sweep, recording every level's frontier for the reverse pass.
  std::vector<Frontier> levels;
  levels.push_back(Frontier::single(n, src, &g.csr()));
  std::int64_t depth = 0;
  while (!levels.back().empty()) {
    ++depth;
    levels.push_back(eng.edge_map(
        levels.back(),
        detail::BcForwardOp{r.sigma.data(), r.level.data(), depth}));
    ++r.rounds;
  }
  levels.pop_back();  // drop the final empty frontier

  // Reverse pull: for ℓ = max … 1, each v at level ℓ−1 sums over its
  // out-neighbours at level ℓ, in CSR order, and writes δ(v) once.
  const graph::Csr& out = g.csr();
  const double* sigma = r.sigma.data();
  const std::int64_t* level = r.level.data();
  double* dependency = r.dependency.data();
  for (std::size_t l = levels.size(); l-- > 1;) {
    if constexpr (requires { eng.poll_cancel(); }) eng.poll_cancel();
    const auto succ = static_cast<std::int64_t>(l);
    engine::vertex_foreach_by_edges(levels[l - 1], out, [&](vid_t v) {
      double delta = 0.0;
      for (const vid_t u : out.neighbors(v))
        if (level[u] == succ)
          delta += sigma[v] / sigma[u] * (1.0 + dependency[u]);
      dependency[v] = delta;
    });
    ++r.rounds;
  }
  // Return the levels' pooled bitmaps and lists to the workspace.
  if constexpr (requires { eng.recycle(levels[0]); }) {
    for (Frontier& f : levels) eng.recycle(f);
  }

  eng.set_orientation(saved);
  r.dependency = g.remap().values_to_original(std::move(r.dependency));
  r.sigma = g.remap().values_to_original(std::move(r.sigma));
  r.level = g.remap().values_to_original(std::move(r.level));
  return r;
}

}  // namespace grind::algorithms
