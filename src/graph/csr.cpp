#include "graph/csr.hpp"

#include <algorithm>
#include <utility>

#include "sys/parallel.hpp"

namespace grind::graph {

namespace {

/// Rows up to this degree are sorted by insertion, in place.
constexpr eid_t kInsertionSortRow = 32;

/// Row blocks per thread in sort_rows: a row's cost is not linear in its
/// degree, so equal-edge blocks are not equal work; dynamic scheduling over
/// more blocks than threads evens it out.
constexpr std::size_t kSortBlocksPerThread = 16;

/// A neighbor and its weight: the unit a long row is merge-sorted in.
struct Entry {
  vid_t v;
  weight_t w;
};

void insertion_sort_row(vid_t* nb, weight_t* w, eid_t deg) {
  for (eid_t i = 1; i < deg; ++i) {
    const vid_t v = nb[i];
    const weight_t x = w[i];
    eid_t j = i;
    for (; j > 0 && nb[j - 1] > v; --j) {
      nb[j] = nb[j - 1];
      w[j] = w[j - 1];
    }
    nb[j] = v;
    w[j] = x;
  }
}

/// Stable bottom-up merge sort of a long row: runs of kInsertionSortRow are
/// sorted in place, then merged back and forth through `scratch`, which
/// holds at least 2·deg entries.
void merge_sort_row(vid_t* nb, weight_t* w, eid_t deg, Entry* scratch) {
  for (eid_t lo = 0; lo < deg; lo += kInsertionSortRow)
    insertion_sort_row(nb + lo, w + lo, std::min(kInsertionSortRow, deg - lo));
  Entry* from = scratch;
  Entry* to = scratch + deg;
  for (eid_t i = 0; i < deg; ++i) from[i] = {nb[i], w[i]};
  const auto by_neighbor = [](const Entry& a, const Entry& b) {
    return a.v < b.v;
  };
  for (eid_t width = kInsertionSortRow; width < deg; width *= 2) {
    for (eid_t lo = 0; lo < deg; lo += 2 * width) {
      const eid_t mid = std::min(deg, lo + width);
      const eid_t hi = std::min(deg, lo + 2 * width);
      std::merge(from + lo, from + mid, from + mid, from + hi, to + lo,
                 by_neighbor);
    }
    std::swap(from, to);
  }
  for (eid_t i = 0; i < deg; ++i) {
    nb[i] = from[i].v;
    w[i] = from[i].w;
  }
}

/// Sort every row by neighbor, stably.  Rows are cut into blocks of about
/// equal edge count; each block allocates one scratch buffer for its long
/// rows, sized once for the longest.  Growing it row by row left a chain of
/// freed chunks in the worker threads' malloc arenas: +16–18 MiB peak RSS
/// with four concurrent builds on RMAT 2^19.
void sort_rows(const std::vector<eid_t>& offsets, vid_t* nb, weight_t* w) {
  const eid_t m = offsets.back();
  // The first row that starts at or after edge e.
  const auto first_row = [&](eid_t e) {
    return static_cast<std::size_t>(
        std::lower_bound(offsets.begin(), offsets.end() - 1, e) -
        offsets.begin());
  };
  const std::size_t blocks = num_blocks(m) * kSortBlocksPerThread;
  parallel_for_blocks(m, blocks, [&](std::size_t, std::size_t lo,
                                     std::size_t hi) {
    const std::size_t first = first_row(lo), last = first_row(hi);
    eid_t longest = 0;
    for (std::size_t v = first; v < last; ++v)
      longest = std::max(longest, offsets[v + 1] - offsets[v]);
    std::vector<Entry> scratch(longest > kInsertionSortRow ? 2 * longest : 0);
    for (std::size_t v = first; v < last; ++v) {
      const eid_t begin = offsets[v];
      const eid_t deg = offsets[v + 1] - begin;
      if (deg <= kInsertionSortRow)
        insertion_sort_row(nb + begin, w + begin, deg);
      else
        merge_sort_row(nb + begin, w + begin, deg, scratch.data());
    }
  });
}

}  // namespace

Csr Csr::build(const EdgeList& el, Adjacency adj) {
  Csr g;
  g.adj_ = adj;
  const bool out = adj == Adjacency::kOut;
  const auto es = el.edges();
  g.neighbors_.resize(es.size());
  g.weights_.resize(es.size());

  // 1. Group edges by row vertex; a row keeps its edges' list order.
  counting_scatter(es.size(), el.num_vertices(), g.offsets_,
                   [&](std::size_t lo, std::size_t hi, auto&& emit) {
                     for (std::size_t i = lo; i < hi; ++i) {
                       const Edge& e = es[i];
                       emit(out ? e.src : e.dst, [&](eid_t slot) {
                         g.neighbors_[slot] = out ? e.dst : e.src;
                         g.weights_[slot] = e.weight;
                       });
                     }
                   });

  // 2. Sort each row ascending, carrying weights, to produce the canonical
  //    layout of Fig 1 and deterministic traversal order.
  sort_rows(g.offsets_, g.neighbors_.data(), g.weights_.data());
  return g;
}

Csr Csr::transpose() const {
  Csr t;
  t.adj_ = adj_ == Adjacency::kOut ? Adjacency::kIn : Adjacency::kOut;
  const eid_t m = num_edges();
  t.neighbors_.resize(m);
  t.weights_.resize(m);
  // Rows are visited in vertex order, so each output row fills with its
  // neighbors ascending.
  counting_scatter(m, num_vertices(), t.offsets_,
                   [&](std::size_t lo, std::size_t hi, auto&& emit) {
                     for_each_edge(lo, hi, [&](vid_t u, eid_t e) {
                       emit(neighbors_[e], [&](eid_t slot) {
                         t.neighbors_[slot] = u;
                         t.weights_[slot] = weights_[e];
                       });
                     });
                   });
  return t;
}

}  // namespace grind::graph
