// Connected components via label propagation (Table II: edge-oriented).
//
// Every vertex starts with its own ID as label; active vertices push their
// label to out-neighbours, which keep the minimum.  Convergence when no
// label changes.  On directed graphs this computes the label-propagation
// fixpoint (min ID over directed ancestors); the benchmark suite symmetrises
// inputs where the paper's graph is undirected, matching Ligra's Components.
#pragma once

#include <algorithm>
#include <vector>

#include "engine/operators.hpp"
#include "engine/vertex_map.hpp"
#include "frontier/frontier.hpp"
#include "sys/atomics.hpp"
#include "sys/parallel.hpp"
#include "sys/types.hpp"

namespace grind::graph {
class Graph;
}  // namespace grind::graph

namespace grind::algorithms {

struct CcResult {
  /// labels[v] = propagation fixpoint label, in original-ID space.  Under a
  /// non-identity VertexOrdering the group labels are canonicalised to the
  /// smallest original ID in each group (see the note at the end of
  /// connected_components).
  std::vector<vid_t> labels;
  /// Number of distinct final labels.
  vid_t num_components = 0;
  int rounds = 0;
};

namespace detail {

/// Min-label propagation with per-round claim flags: update may improve a
/// destination's label several times per round, but the destination enters
/// the next frontier exactly once (the Ligra update contract).
struct CcOp : engine::CondTrue {
  vid_t* labels;
  unsigned char* claimed;

  bool update(vid_t s, vid_t d, weight_t) {
    if (labels[s] < labels[d]) {
      labels[d] = labels[s];
      if (claimed[d] == 0) {
        claimed[d] = 1;
        return true;
      }
    }
    return false;
  }
  bool update_atomic(vid_t s, vid_t d, weight_t) {
    if (atomic_write_min(labels[d], labels[s]))
      return atomic_claim(claimed[d]);
    return false;
  }
};

}  // namespace detail

template <typename Eng>
CcResult connected_components(Eng& eng) {
  const auto& g = eng.graph();
  const vid_t n = g.num_vertices();

  CcResult r;
  r.labels.resize(n);
  parallel_for(0, n,
               [&](std::size_t v) { r.labels[v] = static_cast<vid_t>(v); });
  if (n == 0) return r;

  std::vector<unsigned char> claimed(n, 0);
  Frontier frontier = Frontier::all(n, &g.csr());
  while (!frontier.empty()) {
    Frontier next = eng.edge_map(
        frontier, detail::CcOp{{}, r.labels.data(), claimed.data()});
    ++r.rounds;
    // Reset claim flags for exactly the vertices that entered the frontier.
    engine::vertex_foreach(next, [&](vid_t v) { claimed[v] = 0; });
    if constexpr (requires { eng.recycle(frontier); }) eng.recycle(frontier);
    frontier = std::move(next);
  }

  std::vector<unsigned char> seen(n, 0);
  for (vid_t v = 0; v < n; ++v) seen[r.labels[v]] = 1;
  vid_t comps = 0;
  for (vid_t v = 0; v < n; ++v) comps += seen[v];
  r.num_components = comps;

  // The propagation fixpoint is computed over internal IDs, so under a
  // non-identity ordering the winning (minimum) label names a different
  // vertex than it would in the input ID space.  Canonicalise at the
  // boundary: every label group is renamed to the smallest *original* ID it
  // contains, then the array is un-permuted, so callers see labels that are
  // independent of the build's VertexOrdering.  (Under the identity remap
  // the fixpoint label is already the group's minimum, so this is skipped.)
  const auto& remap = g.remap();
  if (!remap.is_identity()) {
    std::vector<vid_t> canon(n, kInvalidVertex);
    for (vid_t v = 0; v < n; ++v) {
      vid_t& c = canon[r.labels[v]];
      c = std::min(c, remap.to_original(v));
    }
    std::vector<vid_t> labels(n);
    for (vid_t v = 0; v < n; ++v)
      labels[remap.to_original(v)] = canon[r.labels[v]];
    r.labels = std::move(labels);
  }
  return r;
}

}  // namespace grind::algorithms
