#include "partition/partitioned_coo.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "partition/hilbert.hpp"
#include "sys/arena.hpp"
#include "sys/parallel.hpp"

namespace grind::partition {

namespace {

/// The edge at position e of `idx`, whose row vertex is `row`.
Edge edge_at(const graph::Csr& idx, vid_t row, eid_t e) {
  const vid_t other = idx.neighbors()[e];
  const weight_t w = idx.weights()[e];
  return idx.adjacency() == graph::Adjacency::kOut ? Edge{row, other, w}
                                                   : Edge{other, row, w};
}

}  // namespace

PartitionedCoo PartitionedCoo::build(const graph::Csr& csr,
                                     const graph::Csr& csc,
                                     const Partitioning& parts,
                                     EdgeOrder order, const NumaModel* numa) {
  PartitionedCoo coo;
  coo.order_ = order;
  const part_t np = parts.num_partitions();
  const bool by_dst = parts.options().by == PartitionBy::kDestination;
  // `home` is the index whose rows are the partitioned endpoint, so each
  // bucket is a run of its rows; `other` is indexed by the other endpoint.
  const graph::Csr& home = by_dst ? csc : csr;
  const graph::Csr& other = by_dst ? csr : csc;
  const eid_t m = home.num_edges();
  const vid_t covered = std::min(parts.num_vertices(), home.num_vertices());
  if (m > 0 && home.offsets()[covered] != m)
    throw std::out_of_range(
        "PartitionedCoo::build: an edge endpoint lies outside the "
        "partitioning's " + std::to_string(parts.num_vertices()) +
        " vertices");
  coo.edges_.resize(m);

  // 1. Fill the buckets in kSource order (kHilbert starts from it) or in
  //    kDestination order.
  const EdgeOrder fill = order == EdgeOrder::kHilbert ? EdgeOrder::kSource
                                                      : order;
  if (fill == (by_dst ? EdgeOrder::kDestination : EdgeOrder::kSource)) {
    // The home index's rows in order: bucket p is the rows of range p.
    coo.offsets_.resize(static_cast<std::size_t>(np) + 1);
    for (part_t p = 0; p < np; ++p)
      coo.offsets_[p] = home.offsets()[std::min(parts.range(p).begin, covered)];
    coo.offsets_[np] = m;
    parallel_for_blocks(m, num_blocks(m), [&](std::size_t, std::size_t lo,
                                              std::size_t hi) {
      home.for_each_edge(lo, hi, [&](vid_t row, eid_t e) {
        coo.edges_[e] = edge_at(home, row, e);
      });
    });
  } else {
    // A stable scatter of the other index's rows into their home buckets.
    std::vector<part_t> part_of(covered);
    parallel_for_dynamic(0, np, [&](std::size_t p) {
      const VertexRange r = parts.range(static_cast<part_t>(p));
      std::fill(part_of.begin() + std::min(r.begin, covered),
                part_of.begin() + std::min(r.end, covered),
                static_cast<part_t>(p));
    });
    counting_scatter(m, np, coo.offsets_,
                     [&](std::size_t lo, std::size_t hi, auto&& emit) {
                       other.for_each_edge(lo, hi, [&](vid_t row, eid_t e) {
                         emit(part_of[other.neighbors()[e]], [&](eid_t slot) {
                           coo.edges_[slot] = edge_at(other, row, e);
                         });
                       });
                     });
  }

  // 2. kHilbert: order each bucket along the curve, each edge's curve index
  //    computed once.  Only parallel edges share an index, and the stable
  //    sort keeps their order.
  if (order == EdgeOrder::kHilbert) {
    const std::uint32_t horder = hilbert_order_for(parts.num_vertices());
    parallel_for_dynamic(0, np, [&](std::size_t p) {
      Edge* lo = coo.edges_.data() + coo.offsets_[p];
      Edge* hi = coo.edges_.data() + coo.offsets_[p + 1];
      std::vector<std::pair<std::uint64_t, Edge>> keyed;
      keyed.reserve(static_cast<std::size_t>(hi - lo));
      for (const Edge* e = lo; e != hi; ++e)
        keyed.emplace_back(hilbert_edge_key(horder, *e), *e);
      std::stable_sort(keyed.begin(), keyed.end(),
                       [](const auto& a, const auto& b) {
                         return a.first < b.first;
                       });
      for (const auto& [key, e] : keyed) *lo++ = e;
    });
  }

  // 3. Cache the atomics-mode chunk list (partition, edge sub-range).
  for (part_t p = 0; p < np; ++p) {
    const eid_t m = coo.offsets_[p + 1] - coo.offsets_[p];
    for (eid_t lo = 0; lo < m; lo += kCooChunkEdges)
      coo.chunks_.push_back({p, lo, std::min(m, lo + kCooChunkEdges)});
  }

  // 4. Bind each partition's slice of the edge array to its NUMA domain's
  //    arena (§III-D: partition storage lives on the domain whose threads
  //    traverse it).
  if (numa != nullptr) coo.bind_domains(*numa);

  return coo;
}

PartitionedCoo PartitionedCoo::build(const graph::EdgeList& el,
                                     const Partitioning& parts,
                                     EdgeOrder order, const NumaModel* numa) {
  const graph::Csr csr = graph::Csr::build(el, graph::Adjacency::kOut);
  return build(csr, csr.transpose(), parts, order, numa);
}

void PartitionedCoo::bind_domains(const NumaModel& numa) const {
  auto& arenas = NumaArenas::instance();
  const part_t np = num_partitions();
  for (part_t p = 0; p < np; ++p) {
    arenas.place(edges_.data() + offsets_[p],
                 (offsets_[p + 1] - offsets_[p]) * sizeof(Edge),
                 numa.domain_of_partition(p, np));
  }
}

}  // namespace grind::partition
