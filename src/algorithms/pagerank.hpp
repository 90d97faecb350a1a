// PageRank by the power method (Table II: edge-oriented, fixed iteration
// count — the paper runs 10 iterations).
//
// Ligra semantics: rank_next[d] = (1-damping)/|V| + damping · Σ_{s→d}
// rank[s]/deg⁺(s).  Contributions of zero-out-degree vertices are dropped
// (no dangling redistribution), matching Ligra's PageRank.C so that results
// are comparable across the reproduced systems.
#pragma once

#include <vector>

#include "engine/operators.hpp"
#include "engine/options.hpp"
#include "frontier/frontier.hpp"
#include "sys/atomics.hpp"
#include "sys/parallel.hpp"
#include "sys/types.hpp"

namespace grind::graph {
class Graph;
}  // namespace grind::graph

namespace grind::algorithms {

struct PageRankOptions {
  int iterations = 10;
  double damping = 0.85;
};

struct PageRankResult {
  std::vector<double> rank;
  int iterations = 0;
};

namespace detail {

/// Accumulate per-destination contribution sums.  update never activates
/// next-frontier vertices: PR iterates a fixed number of rounds with a full
/// frontier, so frontier maintenance would be wasted work.
struct PrOp : engine::CondTrue {
  const double* contrib;
  double* acc;

  bool update(vid_t s, vid_t d, weight_t) {
    acc[d] += contrib[s];
    return false;
  }
  bool update_atomic(vid_t s, vid_t d, weight_t) {
    atomic_add(acc[d], contrib[s]);
    return false;
  }

  // Scatter-gather decomposition (engine/traverse_pcpm.hpp): the
  // contribution is pure source state, the accumulate is pure destination
  // state, so update(s,d,w) ≡ gather(d, scatter(s,w)) exactly.
  using scatter_value_t = double;
  [[nodiscard]] double scatter(vid_t s, weight_t) const { return contrib[s]; }
  bool gather(vid_t d, double v) {
    acc[d] += v;
    return false;
  }
};

}  // namespace detail

template <typename Eng>
PageRankResult pagerank(Eng& eng, PageRankOptions opts = {}) {
  const auto& g = eng.graph();
  const vid_t n = g.num_vertices();

  PageRankResult r;
  r.rank.assign(n, n > 0 ? 1.0 / static_cast<double>(n) : 0.0);
  if (n == 0) return r;

  std::vector<double> contrib(n, 0.0);
  std::vector<double> acc(n, 0.0);
  const double base = (1.0 - opts.damping) / static_cast<double>(n);

  // One full frontier for the whole run: PR's frontier never changes, so
  // rebuilding (and re-allocating) it per iteration is pure overhead.
  Frontier all = Frontier::all(n, &g.csr());

  for (int it = 0; it < opts.iterations; ++it) {
    parallel_for(0, n, [&](std::size_t v) {
      const eid_t deg = g.out_degree(static_cast<vid_t>(v));
      contrib[v] = deg > 0 ? r.rank[v] / static_cast<double>(deg) : 0.0;
      acc[v] = 0.0;
    });

    Frontier next =
        eng.edge_map(all, detail::PrOp{{}, contrib.data(), acc.data()});
    if constexpr (requires { eng.recycle(next); }) eng.recycle(next);

    parallel_for(0, n, [&](std::size_t v) {
      r.rank[v] = base + opts.damping * acc[v];
    });
    ++r.iterations;
  }
  // Ranks were accumulated in internal-ID space; hand them back indexed by
  // the caller's original IDs.
  r.rank = g.remap().values_to_original(std::move(r.rank));
  return r;
}

/// Re-entrant entry point: the same computation on a caller-owned
/// workspace instead of an engine-owned slot; safe for concurrent use on
/// one shared immutable Graph with one distinct workspace per call.
PageRankResult pagerank(const graph::Graph& g, engine::TraversalWorkspace& ws,
                        PageRankOptions popts = {},
                        const engine::Options& opts = {});

}  // namespace grind::algorithms
