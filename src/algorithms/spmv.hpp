// Sparse matrix–vector multiplication (Table II: edge-oriented, 1
// iteration): y[d] = Σ_{(s,d) ∈ E} w(s,d) · x[s], treating the graph as the
// sparse matrix with A[d][s] = w(s,d).
#pragma once

#include <stdexcept>
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

struct SpmvResult {
  std::vector<double> y;
};

namespace detail {

struct SpmvOp : engine::CondTrue {
  const double* x;
  double* y;

  bool update(vid_t s, vid_t d, weight_t w) {
    y[d] += static_cast<double>(w) * x[s];
    return false;
  }
  bool update_atomic(vid_t s, vid_t d, weight_t w) {
    atomic_add(y[d], static_cast<double>(w) * x[s]);
    return false;
  }

  // Scatter-gather decomposition (engine/traverse_pcpm.hpp): the product
  // is computed on the scatter side with the same expression (and thus the
  // same rounding) as update, the sum on the gather side.
  using scatter_value_t = double;
  [[nodiscard]] double scatter(vid_t s, weight_t w) const {
    return static_cast<double>(w) * x[s];
  }
  bool gather(vid_t d, double v) {
    y[d] += v;
    return false;
  }
};

}  // namespace detail

/// y = A·x.  x defaults to the all-ones vector when empty.  Both x and y
/// are indexed by original vertex IDs; the multiply itself runs over the
/// graph's internal (reordered) ID space.
template <typename Eng>
SpmvResult spmv(Eng& eng, const std::vector<double>& x = {}) {
  const auto& g = eng.graph();
  const vid_t n = g.num_vertices();

  std::vector<double> xv = x;
  if (xv.empty()) xv.assign(n, 1.0);
  if (xv.size() != n) throw std::invalid_argument("spmv: |x| != |V|");
  xv = g.remap().values_to_internal(std::move(xv));

  SpmvResult r;
  r.y.assign(n, 0.0);
  if (n == 0) return r;

  Frontier all = Frontier::all(n, &g.csr());
  eng.edge_map(all, detail::SpmvOp{{}, xv.data(), r.y.data()});
  r.y = g.remap().values_to_original(std::move(r.y));
  return r;
}

/// Re-entrant entry point: the same computation on a caller-owned
/// workspace instead of an engine-owned slot; safe for concurrent use on
/// one shared immutable Graph with one distinct workspace per call.
SpmvResult spmv(const graph::Graph& g, engine::TraversalWorkspace& ws,
                const std::vector<double>& x = {},
                const engine::Options& opts = {});

}  // namespace grind::algorithms
