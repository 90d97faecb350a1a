#include "graph/edge_list.hpp"

#include <algorithm>

#include "sys/parallel.hpp"

namespace grind::graph {

namespace {

/// Sort by (major, minor) with two stable counting scatters, least
/// significant key first: the second pass keeps the first's order within
/// each major key, and equal pairs keep their list order.
template <typename Major, typename Minor>
void stable_sort_edges(std::vector<Edge>& edges, vid_t num_vertices,
                       Major major, Minor minor) {
  // Keys must index a histogram; cover endpoints past num_vertices() too.
  const std::size_t keys = parallel_reduce_max<std::size_t>(
      0, edges.size(), num_vertices, [&](std::size_t i) {
        return std::size_t{std::max(edges[i].src, edges[i].dst)} + 1;
      });
  std::vector<Edge> tmp(edges.size());
  std::vector<eid_t> offsets;
  const auto pass = [&](const std::vector<Edge>& from, std::vector<Edge>& to,
                        auto key) {
    counting_scatter(from.size(), keys, offsets,
                     [&](std::size_t lo, std::size_t hi, auto&& emit) {
                       for (std::size_t i = lo; i < hi; ++i)
                         emit(key(from[i]),
                              [&](eid_t slot) { to[slot] = from[i]; });
                     });
  };
  pass(edges, tmp, minor);
  pass(tmp, edges, major);
}

}  // namespace

void EdgeList::add(vid_t src, vid_t dst, weight_t w) {
  edges_.push_back(Edge{src, dst, w});
  if (src >= num_vertices_) num_vertices_ = src + 1;
  if (dst >= num_vertices_) num_vertices_ = dst + 1;
}

eid_t EdgeList::remove_self_loops() {
  const std::size_t before = edges_.size();
  std::erase_if(edges_, [](const Edge& e) { return e.src == e.dst; });
  return before - edges_.size();
}

eid_t EdgeList::deduplicate() {
  const std::size_t before = edges_.size();
  sort_by_source();
  auto last = std::unique(edges_.begin(), edges_.end(),
                          [](const Edge& a, const Edge& b) {
                            return a.src == b.src && a.dst == b.dst;
                          });
  edges_.erase(last, edges_.end());
  return before - edges_.size();
}

void EdgeList::symmetrize() {
  const std::size_t n = edges_.size();
  edges_.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    const Edge& e = edges_[i];
    if (e.src != e.dst) edges_.push_back(Edge{e.dst, e.src, e.weight});
  }
  deduplicate();
}

std::vector<eid_t> EdgeList::out_degrees() const {
  std::vector<eid_t> deg(num_vertices_, 0);
  for (const Edge& e : edges_) ++deg[e.src];
  return deg;
}

std::vector<eid_t> EdgeList::in_degrees() const {
  std::vector<eid_t> deg(num_vertices_, 0);
  for (const Edge& e : edges_) ++deg[e.dst];
  return deg;
}

eid_t EdgeList::max_degree() const {
  const auto deg = out_degrees();
  eid_t best = 0;
  for (eid_t d : deg) best = std::max(best, d);
  return best;
}

void EdgeList::sort_by_source() {
  stable_sort_edges(edges_, num_vertices_, [](const Edge& e) { return e.src; },
                    [](const Edge& e) { return e.dst; });
}

void EdgeList::sort_by_destination() {
  stable_sort_edges(edges_, num_vertices_, [](const Edge& e) { return e.dst; },
                    [](const Edge& e) { return e.src; });
}

}  // namespace grind::graph
