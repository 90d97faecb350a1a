// k-core decomposition (registry extension beyond Table II — the worked
// example of docs/ALGORITHMS.md's "how to add an algorithm").
//
// The coreness of a vertex is the largest k such that it belongs to the
// k-core: the maximal subgraph in which every vertex has degree ≥ k.  We
// use the total (undirected) degree of the directed multigraph — every
// directed edge contributes one endpoint to its source and one to its
// destination, so a self-loop adds 2 — which makes coreness well defined on
// the suite's directed inputs and exactly checkable by the serial peeling
// oracle.
//
// Ligra-style parallel peeling: at stage k, vertices whose remaining degree
// is < k are removed in batches (their coreness is k-1), and each removal
// batch pushes degree decrements to its surviving out- AND in-neighbours
// through edge_map / edge_map_transpose.  Decrements are exact integer
// adds, so the result is deterministic under any schedule.  The algorithm
// is a template over the traversal engine like every other workload.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "engine/operators.hpp"
#include "engine/options.hpp"
#include "engine/vertex_map.hpp"
#include "frontier/frontier.hpp"
#include "sys/atomics.hpp"
#include "sys/parallel.hpp"
#include "sys/types.hpp"

namespace grind::graph {
class Graph;
}  // namespace grind::graph

namespace grind::algorithms {

struct KcoreResult {
  /// Coreness per vertex, original-ID space.
  std::vector<vid_t> core;
  /// Largest coreness (the degeneracy of the graph).
  vid_t max_core = 0;
  /// Peeling batches executed (each runs one forward + one transpose
  /// edge_map).
  int rounds = 0;
};

namespace detail {

/// Count in-degrees with one full-frontier pass.
struct KcoreIndegreeOp : engine::CondTrue {
  std::int64_t* deg;

  bool update(vid_t, vid_t d, weight_t) {
    deg[d] += 1;
    return false;
  }
  bool update_atomic(vid_t, vid_t d, weight_t) {
    atomic_add(deg[d], std::int64_t{1});
    return false;
  }
};

/// A removed source takes one degree unit from every surviving neighbour.
struct KcoreDecOp {
  std::int64_t* deg;
  const unsigned char* alive;

  bool update(vid_t, vid_t d, weight_t) {
    if (alive[d] != 0) deg[d] -= 1;
    return false;
  }
  bool update_atomic(vid_t, vid_t d, weight_t) {
    if (alive[d] != 0) atomic_add(deg[d], std::int64_t{-1});
    return false;
  }
  [[nodiscard]] bool cond(vid_t d) const { return alive[d] != 0; }
};

}  // namespace detail

template <typename Eng>
KcoreResult kcore(Eng& eng) {
  const auto& g = eng.graph();
  const vid_t n = g.num_vertices();

  KcoreResult r;
  r.core.assign(n, 0);
  if (n == 0) return r;

  const auto saved = eng.orientation();
  eng.set_orientation(engine::Orientation::kVertex);

  // Total degree = out-degree + in-degree; in-degrees come from one
  // full-frontier pass so the template needs nothing beyond the engine
  // concept.
  std::vector<std::int64_t> deg(n, 0);
  {
    Frontier all = Frontier::all(n, &g.csr());
    Frontier out = eng.edge_map(all, detail::KcoreIndegreeOp{{}, deg.data()});
    if constexpr (requires { eng.recycle(all); }) {
      eng.recycle(all);
      eng.recycle(out);
    }
  }
  parallel_for(0, n, [&](std::size_t v) {
    deg[v] += static_cast<std::int64_t>(g.out_degree(static_cast<vid_t>(v)));
  });

  std::vector<unsigned char> alive(n, 1);
  vid_t remaining = n;
  for (vid_t k = 1; remaining > 0; ++k) {
    // Peel every vertex that cannot be in the k-core; repeat until the
    // stage stabilises (a batch's decrements can push survivors below k).
    for (;;) {
      Frontier candidates = Frontier::all(n, &g.csr());
      Frontier peel = eng.vertex_map(candidates, [&](vid_t v) {
        return alive[v] != 0 && deg[v] < static_cast<std::int64_t>(k);
      });
      if (peel.empty()) {
        if constexpr (requires { eng.recycle(peel); }) {
          eng.recycle(candidates);
          eng.recycle(peel);
        }
        break;
      }
      engine::vertex_foreach(peel, [&](vid_t v) {
        alive[v] = 0;
        r.core[v] = k - 1;
      });
      remaining -= peel.num_active();

      detail::KcoreDecOp op{deg.data(), alive.data()};
      Frontier fwd = eng.edge_map(peel, op);
      Frontier bwd = eng.edge_map_transpose(peel, op);
      ++r.rounds;
      if constexpr (requires { eng.recycle(peel); }) {
        eng.recycle(candidates);
        eng.recycle(peel);
        eng.recycle(fwd);
        eng.recycle(bwd);
      }
    }
  }

  eng.set_orientation(saved);
  r.max_core = *std::max_element(r.core.begin(), r.core.end());
  r.core = g.remap().values_to_original(std::move(r.core));
  return r;
}

/// Re-entrant entry point: the same computation on a caller-owned
/// workspace instead of an engine-owned slot; safe for concurrent use on
/// one shared immutable Graph with one distinct workspace per call.
KcoreResult kcore(const graph::Graph& g, engine::TraversalWorkspace& ws,
                  const engine::Options& opts = {});

}  // namespace grind::algorithms
