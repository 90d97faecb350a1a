#include "algorithms/ref/reference.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <queue>
#include <utility>

#include "algorithms/belief_propagation.hpp"  // detail::bp_prior
#include "graph/csr.hpp"

namespace grind::algorithms::ref {

namespace {

/// Adjacency built once per oracle call; oracle inputs are small.
struct Adj {
  graph::Csr out;
  graph::Csr in;

  explicit Adj(const graph::EdgeList& el)
      : out(graph::Csr::build(el, graph::Adjacency::kOut)),
        in(out.transpose()) {}
};

}  // namespace

std::vector<std::int64_t> bfs_levels(const graph::EdgeList& el, vid_t source) {
  const vid_t n = el.num_vertices();
  std::vector<std::int64_t> level(n, -1);
  if (n == 0) return level;
  const Adj a(el);

  std::deque<vid_t> queue;
  level[source] = 0;
  queue.push_back(source);
  while (!queue.empty()) {
    const vid_t v = queue.front();
    queue.pop_front();
    for (vid_t u : a.out.neighbors(v)) {
      if (level[u] == -1) {
        level[u] = level[v] + 1;
        queue.push_back(u);
      }
    }
  }
  return level;
}

std::vector<vid_t> cc_labels(const graph::EdgeList& el) {
  const vid_t n = el.num_vertices();
  std::vector<vid_t> label(n);
  for (vid_t v = 0; v < n; ++v) label[v] = v;
  // Gauss-Seidel label propagation to fixpoint.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Edge& e : el.edges()) {
      if (label[e.src] < label[e.dst]) {
        label[e.dst] = label[e.src];
        changed = true;
      }
    }
  }
  return label;
}

std::vector<double> pagerank(const graph::EdgeList& el, int iterations,
                             double damping) {
  const vid_t n = el.num_vertices();
  if (n == 0) return {};
  const Adj a(el);
  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n, 0.0);
  const double base = (1.0 - damping) / static_cast<double>(n);
  for (int it = 0; it < iterations; ++it) {
    std::fill(next.begin(), next.end(), 0.0);
    for (vid_t s = 0; s < n; ++s) {
      const auto deg = a.out.degree(s);
      if (deg == 0) continue;
      const double c = rank[s] / static_cast<double>(deg);
      for (vid_t d : a.out.neighbors(s)) next[d] += c;
    }
    for (vid_t v = 0; v < n; ++v) rank[v] = base + damping * next[v];
  }
  return rank;
}

std::vector<double> sssp_dijkstra(const graph::EdgeList& el, vid_t source) {
  const vid_t n = el.num_vertices();
  std::vector<double> dist(n, std::numeric_limits<double>::infinity());
  if (n == 0) return dist;
  const Adj a(el);

  using Item = std::pair<double, vid_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[source] = 0.0;
  pq.emplace(0.0, source);
  while (!pq.empty()) {
    const auto [d, v] = pq.top();
    pq.pop();
    if (d > dist[v]) continue;
    const auto neigh = a.out.neighbors(v);
    const auto ws = a.out.weights(v);
    for (std::size_t i = 0; i < neigh.size(); ++i) {
      const double cand = d + static_cast<double>(ws[i]);
      if (cand < dist[neigh[i]]) {
        dist[neigh[i]] = cand;
        pq.emplace(cand, neigh[i]);
      }
    }
  }
  return dist;
}

std::vector<double> spmv(const graph::EdgeList& el,
                         const std::vector<double>& x) {
  const vid_t n = el.num_vertices();
  std::vector<double> y(n, 0.0);
  for (const Edge& e : el.edges())
    y[e.dst] += static_cast<double>(e.weight) * x[e.src];
  return y;
}

std::vector<double> bc_dependency(const graph::EdgeList& el, vid_t source) {
  const vid_t n = el.num_vertices();
  std::vector<double> delta(n, 0.0);
  if (n == 0) return delta;
  const Adj a(el);

  // Brandes: BFS computing sigma and predecessor structure implicit via
  // levels, then reverse accumulation.
  std::vector<std::int64_t> level(n, -1);
  std::vector<double> sigma(n, 0.0);
  std::vector<vid_t> order;  // vertices in BFS discovery order
  order.reserve(n);

  std::deque<vid_t> queue;
  level[source] = 0;
  sigma[source] = 1.0;
  queue.push_back(source);
  while (!queue.empty()) {
    const vid_t v = queue.front();
    queue.pop_front();
    order.push_back(v);
    for (vid_t u : a.out.neighbors(v)) {
      if (level[u] == -1) {
        level[u] = level[v] + 1;
        queue.push_back(u);
      }
      if (level[u] == level[v] + 1) sigma[u] += sigma[v];
    }
  }

  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const vid_t v = *it;
    for (vid_t u : a.out.neighbors(v)) {
      if (level[u] == level[v] + 1)
        delta[v] += sigma[v] / sigma[u] * (1.0 + delta[u]);
    }
  }
  return delta;
}

std::vector<double> belief_propagation(const graph::EdgeList& el,
                                       int iterations, double q_base,
                                       double q_scale,
                                       std::uint64_t prior_seed) {
  const vid_t n = el.num_vertices();
  std::vector<double> prior0(n), b0(n);
  for (vid_t v = 0; v < n; ++v) {
    prior0[v] = algorithms::detail::bp_prior(prior_seed, v);
    b0[v] = prior0[v];
  }
  std::vector<double> acc0(n), acc1(n);
  for (int it = 0; it < iterations; ++it) {
    std::fill(acc0.begin(), acc0.end(), 0.0);
    std::fill(acc1.begin(), acc1.end(), 0.0);
    for (const Edge& e : el.edges()) {
      const double q = std::clamp(
          q_base + q_scale * static_cast<double>(e.weight) / 10.0, 0.01, 0.49);
      const double s0 = b0[e.src];
      const double s1 = 1.0 - s0;
      acc0[e.dst] += std::log((1.0 - q) * s0 + q * s1);
      acc1[e.dst] += std::log(q * s0 + (1.0 - q) * s1);
    }
    for (vid_t v = 0; v < n; ++v) {
      const double u0 = std::log(prior0[v]) + acc0[v];
      const double u1 = std::log(1.0 - prior0[v]) + acc1[v];
      const double mx = std::max(u0, u1);
      const double e0 = std::exp(u0 - mx);
      const double e1 = std::exp(u1 - mx);
      b0[v] = e0 / (e0 + e1);
    }
  }
  return b0;
}

}  // namespace grind::algorithms::ref
