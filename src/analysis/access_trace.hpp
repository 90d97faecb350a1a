// Memory-access traces of the traversal kernels, for feeding the reuse-
// distance profiler (Fig 2) and the cache simulator (Fig 8).
//
// Each trace function replays the exact address sequence a kernel touches in
// one dense iteration of a PR-style computation (read the source's frontier
// bit and value, write the destination's accumulator), using a synthetic
// address map with disjoint regions per array.  Edge-array streaming reads
// are included so the instruction/access mix resembles the real kernels.
//
// Sinks are callables `void(std::uintptr_t addr)` (templated, zero
// overhead).  Each function returns the modelled instruction count so MPKI
// can be computed (Fig 8).
#pragma once

#include <cstdint>

#include "graph/csr.hpp"
#include "partition/partitioned_coo.hpp"
#include "sys/types.hpp"

namespace grind::analysis {

/// Synthetic, non-overlapping base addresses for each logical array.
struct AddressMap {
  std::uintptr_t frontier_base = 0x1'0000'0000ULL;  ///< 1 byte per 8 vertices
  std::uintptr_t src_value_base = 0x2'0000'0000ULL; ///< value_bytes per vertex
  std::uintptr_t dst_value_base = 0x3'0000'0000ULL;
  std::uintptr_t edge_array_base = 0x4'0000'0000ULL;
  std::size_t value_bytes = 8;  ///< per-vertex payload (a double)

  [[nodiscard]] std::uintptr_t frontier_addr(vid_t v) const {
    return frontier_base + v / 8;
  }
  [[nodiscard]] std::uintptr_t src_value_addr(vid_t v) const {
    return src_value_base + static_cast<std::uintptr_t>(v) * value_bytes;
  }
  [[nodiscard]] std::uintptr_t dst_value_addr(vid_t v) const {
    return dst_value_base + static_cast<std::uintptr_t>(v) * value_bytes;
  }
  [[nodiscard]] std::uintptr_t edge_addr(eid_t e) const {
    return edge_array_base + static_cast<std::uintptr_t>(e) * sizeof(Edge);
  }
};

/// Modelled instruction costs (approximate; only the ratio to access counts
/// matters for MPKI shape).
inline constexpr std::uint64_t kInstructionsPerEdge = 10;
inline constexpr std::uint64_t kInstructionsPerVertex = 6;

/// Trace one dense iteration over the partitioned COO layout: partitions in
/// order, edges in the partition's sort order; per edge: edge record read,
/// source frontier-bit read, source value read, destination value write.
/// Returns the instruction count.
template <typename Sink>
std::uint64_t trace_coo_dense(const partition::PartitionedCoo& coo,
                              const AddressMap& map, Sink&& sink) {
  eid_t e = 0;
  for (const Edge& edge : coo.all_edges()) {
    sink(map.edge_addr(e++));
    sink(map.frontier_addr(edge.src));
    sink(map.src_value_addr(edge.src));
    sink(map.dst_value_addr(edge.dst));
  }
  return coo.num_edges() * kInstructionsPerEdge;
}

/// Trace one dense COO iteration as executed by `streams` concurrent
/// workers sharing one LLC: worker k owns partitions k, k+streams, … (the
/// "+na" schedule) and the workers' access sequences are interleaved
/// edge-by-edge.  This is the model behind Fig 8: with few partitions the
/// co-resident destination ranges cover the whole value array and thrash
/// the shared cache; with many partitions each worker's live slice is tiny
/// and the combined working set fits.
template <typename Sink>
std::uint64_t trace_coo_dense_concurrent(const partition::PartitionedCoo& coo,
                                         const AddressMap& map, int streams,
                                         Sink&& sink) {
  const part_t np = coo.num_partitions();
  if (streams < 1) streams = 1;
  struct Cursor {
    part_t part;       // current partition (absolute index)
    std::size_t edge;  // offset within that partition
  };
  std::vector<Cursor> cur(static_cast<std::size_t>(streams));
  for (int k = 0; k < streams; ++k)
    cur[static_cast<std::size_t>(k)] = {static_cast<part_t>(k), 0};

  bool any = true;
  while (any) {
    any = false;
    for (int k = 0; k < streams; ++k) {
      Cursor& c = cur[static_cast<std::size_t>(k)];
      // Skip exhausted partitions (stride = streams).
      while (c.part < np && c.edge >= coo.edges(c.part).size()) {
        c.part += static_cast<part_t>(streams);
        c.edge = 0;
      }
      if (c.part >= np) continue;
      any = true;
      const Edge& edge = coo.edges(c.part)[c.edge];
      const eid_t global = coo.offsets()[c.part] + c.edge;
      sink(map.edge_addr(global));
      sink(map.frontier_addr(edge.src));
      sink(map.src_value_addr(edge.src));
      sink(map.dst_value_addr(edge.dst));
      ++c.edge;
    }
  }
  return coo.num_edges() * kInstructionsPerEdge;
}

/// Concurrent-worker trace of the backward CSC traversal: worker k owns
/// every streams'th destination chunk of 64 vertices.  The edge order each
/// worker sees is partition-independent (§II-C), so misses do not respond
/// to the partition count — the BFS line of Fig 8.
template <typename Sink>
std::uint64_t trace_csc_backward_concurrent(const graph::Csr& csc,
                                            const AddressMap& map, int streams,
                                            Sink&& sink) {
  const vid_t n = csc.num_vertices();
  if (streams < 1) streams = 1;
  constexpr vid_t kChunk = 64;
  std::vector<vid_t> cur(static_cast<std::size_t>(streams));
  std::vector<vid_t> pos(static_cast<std::size_t>(streams), 0);
  for (int k = 0; k < streams; ++k)
    cur[static_cast<std::size_t>(k)] = static_cast<vid_t>(k) * kChunk;

  const auto offsets = csc.offsets();
  bool any = true;
  while (any) {
    any = false;
    for (int k = 0; k < streams; ++k) {
      vid_t& base = cur[static_cast<std::size_t>(k)];
      vid_t& off = pos[static_cast<std::size_t>(k)];
      while (base < n && off >= std::min<vid_t>(kChunk, n - base)) {
        base += static_cast<vid_t>(streams) * kChunk;
        off = 0;
      }
      if (base >= n) continue;
      any = true;
      const vid_t d = base + off;
      sink(map.dst_value_addr(d));
      const auto neigh = csc.neighbors(d);
      for (std::size_t j = 0; j < neigh.size(); ++j) {
        sink(map.edge_addr(offsets[d] + j));
        sink(map.frontier_addr(neigh[j]));
        sink(map.src_value_addr(neigh[j]));
      }
      ++off;
    }
  }
  return csc.num_edges() * kInstructionsPerEdge +
         static_cast<std::uint64_t>(n) * kInstructionsPerVertex;
}

/// Trace only the *destination-value updates* of a COO iteration — the
/// "updates to the next frontier" stream whose reuse distances Fig 2 plots.
template <typename Sink>
std::uint64_t trace_coo_next_updates(const partition::PartitionedCoo& coo,
                                     const AddressMap& map, Sink&& sink) {
  for (const Edge& edge : coo.all_edges()) sink(map.dst_value_addr(edge.dst));
  return coo.num_edges() * kInstructionsPerEdge;
}

/// Trace one dense backward iteration over the whole CSC: per destination a
/// value write; per in-edge an edge read, source frontier-bit read and
/// source value read.  Partitioning-by-destination does not change this
/// order (§II-C), so the trace — and hence BFS's MPKI — is independent of
/// the partition count.
template <typename Sink>
std::uint64_t trace_csc_backward(const graph::Csr& csc, const AddressMap& map,
                                 Sink&& sink) {
  const vid_t n = csc.num_vertices();
  eid_t e = 0;
  for (vid_t d = 0; d < n; ++d) {
    sink(map.dst_value_addr(d));
    for (vid_t s : csc.neighbors(d)) {
      sink(map.edge_addr(e++));
      sink(map.frontier_addr(s));
      sink(map.src_value_addr(s));
    }
  }
  return csc.num_edges() * kInstructionsPerEdge +
         static_cast<std::uint64_t>(n) * kInstructionsPerVertex;
}

/// Trace one dense forward iteration over the whole CSR: per source a value
/// read; per out-edge an edge read and a destination value write.
template <typename Sink>
std::uint64_t trace_csr_forward(const graph::Csr& csr, const AddressMap& map,
                                Sink&& sink) {
  const vid_t n = csr.num_vertices();
  eid_t e = 0;
  for (vid_t s = 0; s < n; ++s) {
    sink(map.frontier_addr(s));
    sink(map.src_value_addr(s));
    for (vid_t d : csr.neighbors(s)) {
      sink(map.edge_addr(e++));
      sink(map.dst_value_addr(d));
    }
  }
  return csr.num_edges() * kInstructionsPerEdge +
         static_cast<std::uint64_t>(n) * kInstructionsPerVertex;
}

}  // namespace grind::analysis
