// Delta-stepping PageRank (Table II "PRDelta": optimized Page-Rank
// forwarding delta-updates between vertices — Ligra's PageRankDelta).
//
// Instead of recomputing every rank each round, only *changes* (deltas) are
// propagated, and a vertex re-enters the frontier only when its accumulated
// delta is significant relative to its rank.  This produces the frontier
// density pattern the paper highlights (§IV-A: for Twitter, "8 frontiers
// are dense, 3 are medium-dense and 22 are sparse"), exercising all three
// layouts of Algorithm 2 within one execution.
//
// As rounds → ∞ with epsilon → 0 the rank vector converges to
// PageRank/(1−damping) (the same fixpoint up to a global scale), which the
// tests exploit as an oracle.
#pragma once

#include <cmath>
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

struct PageRankDeltaOptions {
  double damping = 0.85;
  /// A vertex stays active while |delta| > epsilon / |V| (i.e. epsilon is
  /// expressed relative to the uniform initial rank 1/|V|).  An *absolute*
  /// threshold is what produces the paper's gradual dense → medium-dense →
  /// sparse frontier decay: high-rank hubs carry large deltas and stay
  /// active for many rounds after low-degree vertices have converged.  (A
  /// threshold relative to each vertex's own rank decays uniformly across
  /// vertices and collapses the frontier from dense straight to empty.)
  double epsilon = 0.05;
  /// Hard round cap (the natural stop is an empty frontier).
  int max_rounds = 100;
};

struct PageRankDeltaResult {
  std::vector<double> rank;
  int rounds = 0;
  /// Frontier density classification per round, for the §IV-A breakdown:
  /// how many rounds ran dense / medium / sparse.
  int dense_rounds = 0;
  int medium_rounds = 0;
  int sparse_rounds = 0;
};

namespace detail {

/// Accumulate incoming delta mass; a destination joins the next frontier on
/// first receipt (claim flag), significance is filtered afterwards.
struct PrDeltaOp : engine::CondTrue {
  const double* contrib;  // damping * delta[s] / deg⁺(s)
  double* acc;
  unsigned char* claimed;

  bool update(vid_t s, vid_t d, weight_t) {
    acc[d] += contrib[s];
    if (claimed[d] == 0) {
      claimed[d] = 1;
      return true;
    }
    return false;
  }
  bool update_atomic(vid_t s, vid_t d, weight_t) {
    atomic_add(acc[d], contrib[s]);
    return atomic_claim(claimed[d]);
  }
};

}  // namespace detail

template <typename Eng>
PageRankDeltaResult pagerank_delta(Eng& eng, PageRankDeltaOptions opts = {}) {
  const auto& g = eng.graph();
  const vid_t n = g.num_vertices();
  const eid_t m = g.num_edges();

  PageRankDeltaResult r;
  if (n == 0) return r;
  const double inv_n = 1.0 / static_cast<double>(n);
  r.rank.assign(n, inv_n);

  std::vector<double> delta(n, inv_n);
  std::vector<double> contrib(n, 0.0);
  std::vector<double> acc(n, 0.0);
  std::vector<unsigned char> claimed(n, 0);

  Frontier frontier = Frontier::all(n, &g.csr());

  while (!frontier.empty() && r.rounds < opts.max_rounds) {
    switch (engine::classify_density(frontier.traversal_weight(), m)) {
      case engine::Density::kDense: ++r.dense_rounds; break;
      case engine::Density::kMedium: ++r.medium_rounds; break;
      case engine::Density::kSparse: ++r.sparse_rounds; break;
    }

    engine::vertex_foreach(frontier, [&](vid_t v) {
      const eid_t deg = g.out_degree(v);
      contrib[v] = deg > 0
                       ? opts.damping * delta[v] / static_cast<double>(deg)
                       : 0.0;
    });

    Frontier received = eng.edge_map(
        frontier,
        detail::PrDeltaOp{{}, contrib.data(), acc.data(), claimed.data()});
    ++r.rounds;

    // Fold accumulated deltas into ranks; keep only significant receivers.
    const double threshold = opts.epsilon * inv_n;
    Frontier next = eng.vertex_map(received, [&](vid_t v) {
      claimed[v] = 0;
      const double dv = acc[v];
      acc[v] = 0.0;
      delta[v] = dv;
      r.rank[v] += dv;
      return std::fabs(dv) > threshold;
    });
    if constexpr (requires { eng.recycle(frontier); }) {
      eng.recycle(frontier);
      eng.recycle(received);
    }
    frontier = std::move(next);
  }
  r.rank = g.remap().values_to_original(std::move(r.rank));
  return r;
}

}  // namespace grind::algorithms
