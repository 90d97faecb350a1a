// Loopy belief propagation on a pairwise binary Markov random field laid
// over the graph (Table II "BP": Bayesian belief propagation, 10 iterations
// — the Polymer workload).
//
// Each vertex holds a 2-state belief; each directed edge (s, d) carries an
// attractive pairwise potential whose coupling derives from the edge weight.
// One iteration sends a message from every active source along every
// out-edge and accumulates log-messages at the destination; beliefs are then
// renormalised.  The per-edge log/exp arithmetic makes BP the most
// compute-intensive of the eight workloads, as in the paper's Fig 5h.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "engine/operators.hpp"
#include "engine/options.hpp"
#include "frontier/frontier.hpp"
#include "sys/atomics.hpp"
#include "sys/parallel.hpp"
#include "sys/rng.hpp"
#include "sys/types.hpp"

namespace grind::graph {
class Graph;
}  // namespace grind::graph

namespace grind::algorithms {

struct BeliefPropagationOptions {
  int iterations = 10;
  /// Coupling scale: pairwise potential q(w) = q_base + q_scale·(w / 10).
  double q_base = 0.1;
  double q_scale = 0.3;
  /// Seed for the deterministic per-vertex priors.
  std::uint64_t prior_seed = 42;
};

struct BeliefPropagationResult {
  /// Probability of state 0 per vertex (state 1 = 1 − belief0).
  std::vector<double> belief0;
  int iterations = 0;
};

namespace detail {

struct BpOp : engine::CondTrue {
  const double* b0;
  double* acc0;
  double* acc1;
  double q_base;
  double q_scale;

  /// Message from s under the pairwise potential [[1-q, q], [q, 1-q]].
  void message(vid_t s, weight_t w, double& m0, double& m1) const {
    const double q = std::clamp(
        q_base + q_scale * static_cast<double>(w) / 10.0, 0.01, 0.49);
    const double s0 = b0[s];
    const double s1 = 1.0 - s0;
    m0 = (1.0 - q) * s0 + q * s1;
    m1 = q * s0 + (1.0 - q) * s1;
  }

  bool update(vid_t s, vid_t d, weight_t w) {
    double m0 = 0.0, m1 = 0.0;
    message(s, w, m0, m1);
    acc0[d] += std::log(m0);
    acc1[d] += std::log(m1);
    return false;
  }
  bool update_atomic(vid_t s, vid_t d, weight_t w) {
    double m0 = 0.0, m1 = 0.0;
    message(s, w, m0, m1);
    atomic_add(acc0[d], std::log(m0));
    atomic_add(acc1[d], std::log(m1));
    return false;
  }

  // Scatter-gather decomposition (engine/traverse_pcpm.hpp): BP's message
  // is a *pair* of log-potentials, so its scatter value is a two-field
  // struct — the per-operator value type is why the PCPM bins store raw
  // bytes sized by the operator rather than a fixed payload.
  struct LogMessage {
    double log_m0;
    double log_m1;
  };
  using scatter_value_t = LogMessage;
  [[nodiscard]] LogMessage scatter(vid_t s, weight_t w) const {
    double m0 = 0.0, m1 = 0.0;
    message(s, w, m0, m1);
    return {std::log(m0), std::log(m1)};
  }
  bool gather(vid_t d, LogMessage v) {
    acc0[d] += v.log_m0;
    acc1[d] += v.log_m1;
    return false;
  }
};

/// Deterministic prior in (0.1, 0.9) from a hash of the vertex id.
inline double bp_prior(std::uint64_t seed, vid_t v) {
  SplitMix64 h(seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(v) + 1)));
  return 0.1 + 0.8 * static_cast<double>(h.next() >> 11) * 0x1.0p-53;
}

}  // namespace detail

template <typename Eng>
BeliefPropagationResult belief_propagation(Eng& eng,
                                           BeliefPropagationOptions opts = {}) {
  const auto& g = eng.graph();
  const vid_t n = g.num_vertices();

  BeliefPropagationResult r;
  r.belief0.assign(n, 0.5);
  if (n == 0) return r;

  // Priors are keyed by *original* vertex ID so the field (and therefore
  // the fixpoint) is invariant under the build's VertexOrdering.
  const auto& remap = g.remap();
  std::vector<double> prior0(n);
  parallel_for(0, n, [&](std::size_t v) {
    prior0[v] = detail::bp_prior(opts.prior_seed,
                                 remap.to_original(static_cast<vid_t>(v)));
    r.belief0[v] = prior0[v];
  });

  std::vector<double> acc0(n, 0.0), acc1(n, 0.0);

  // One full frontier for the whole run (BP always processes every edge).
  Frontier all = Frontier::all(n, &g.csr());

  for (int it = 0; it < opts.iterations; ++it) {
    parallel_for(0, n, [&](std::size_t v) { acc0[v] = acc1[v] = 0.0; });

    Frontier out =
        eng.edge_map(all, detail::BpOp{{}, r.belief0.data(), acc0.data(),
                                       acc1.data(), opts.q_base,
                                       opts.q_scale});
    if constexpr (requires { eng.recycle(out); }) eng.recycle(out);

    parallel_for(0, n, [&](std::size_t v) {
      const double u0 = std::log(prior0[v]) + acc0[v];
      const double u1 = std::log(1.0 - prior0[v]) + acc1[v];
      const double mx = std::max(u0, u1);
      const double e0 = std::exp(u0 - mx);
      const double e1 = std::exp(u1 - mx);
      r.belief0[v] = e0 / (e0 + e1);
    });
    ++r.iterations;
  }
  r.belief0 = remap.values_to_original(std::move(r.belief0));
  return r;
}

/// Re-entrant entry point: the same computation on a caller-owned
/// workspace instead of an engine-owned slot; safe for concurrent use on
/// one shared immutable Graph with one distinct workspace per call.
BeliefPropagationResult belief_propagation(
    const graph::Graph& g, engine::TraversalWorkspace& ws,
    BeliefPropagationOptions popts = {},
    const engine::Options& opts = {});

}  // namespace grind::algorithms
