// Partitioned COO layout — the layout that scales to hundreds of partitions.
//
// Edges are bucketed by the home partition of their destination (or source,
// per the partitioning) into one contiguous backing array; partition p's
// edges occupy [offsets[p], offsets[p+1]).  Within a partition, edges may be
// sorted by source (CSR order, the default), by destination (CSC order), or
// along a Hilbert space-filling curve (§IV-C) — the order is a build-time
// knob benchmarked in bench_fig7_sort_order.
//
// Storage is 2|E|·bv (+ weights) regardless of the number of partitions
// (§II-E), and traversal work is exactly one visit per edge regardless of
// vertex replication (§II-F).
#pragma once

#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "graph/edge_list.hpp"
#include "partition/partitioner.hpp"
#include "sys/numa.hpp"
#include "sys/types.hpp"

namespace grind::partition {

/// Intra-partition edge orderings (§IV-C, Fig 7).
enum class EdgeOrder {
  kSource,       ///< sort by (src, dst): CSR traversal order
  kDestination,  ///< sort by (dst, src): CSC traversal order
  kHilbert,      ///< sort by Hilbert index of (src, dst)
};

/// Edges per schedulable chunk in the atomics-mode dense traversal: small
/// enough to give intra-partition parallelism when P < threads, large enough
/// that chunk dispatch overhead is negligible.
inline constexpr eid_t kCooChunkEdges = 1 << 14;

/// One (partition, edge sub-range) work item of the atomics-mode dense
/// traversal; [begin, end) indexes into the partition's edge bucket.
struct CooChunk {
  part_t part;
  eid_t begin;
  eid_t end;
};

/// COO edge arrays bucketed by partition.
class PartitionedCoo {
 public:
  PartitionedCoo() = default;

  /// Bucket the edges indexed by `csr` and `csc` (the same graph's CSR and
  /// CSC) by `parts` (home of each edge's destination for
  /// PartitionBy::kDestination) in `order`, with no comparison sort:
  /// buckets whose order follows the partitioned endpoint are that index's
  /// rows in order, the others a stable scatter of the other index's rows,
  /// and kHilbert stably sorts the kSource buckets by curve index.  Parallel
  /// edges keep their edge-list order.  With a NumaModel, each partition's
  /// slice of the (contiguous, partition-major) edge array is routed through
  /// the arena of its owning domain (sys/arena.hpp: mbind under GRIND_NUMA,
  /// accounting otherwise).  Throws std::out_of_range when an edge's
  /// partitioned endpoint lies outside `parts`.
  static PartitionedCoo build(const graph::Csr& csr, const graph::Csr& csc,
                              const Partitioning& parts,
                              EdgeOrder order = EdgeOrder::kSource,
                              const NumaModel* numa = nullptr);

  /// The same layout from an edge list: builds its CSR and CSC first.
  static PartitionedCoo build(const graph::EdgeList& el,
                              const Partitioning& parts,
                              EdgeOrder order = EdgeOrder::kSource,
                              const NumaModel* numa = nullptr);

  [[nodiscard]] part_t num_partitions() const {
    return offsets_.empty() ? 0 : static_cast<part_t>(offsets_.size() - 1);
  }
  [[nodiscard]] eid_t num_edges() const { return edges_.size(); }
  [[nodiscard]] EdgeOrder order() const { return order_; }

  /// Edges of partition p.
  [[nodiscard]] std::span<const Edge> edges(part_t p) const {
    return {edges_.data() + offsets_[p],
            static_cast<std::size_t>(offsets_[p + 1] - offsets_[p])};
  }

  /// All edges, partition-major.
  [[nodiscard]] std::span<const Edge> all_edges() const { return edges_; }

  [[nodiscard]] std::span<const eid_t> offsets() const { return offsets_; }

  /// The atomics-mode work list: every partition's edge range split into
  /// kCooChunkEdges-sized chunks.  Computed once at build time — the layout
  /// is immutable, so rebuilding this list per edge_map call (as the engine
  /// once did) is pure hot-loop overhead.
  [[nodiscard]] const std::vector<CooChunk>& chunks() const { return chunks_; }

  /// Bytes of storage per the paper's accounting: 2|E|·bv (src + dst ids;
  /// weights excluded to match the unweighted formulas of §II-E).
  [[nodiscard]] std::size_t storage_bytes_unweighted() const {
    return edges_.size() * 2 * kBytesPerVertexId;
  }

 private:
  /// Bind each partition's slice of the edge array to its owning domain's
  /// arena (build() does this when given a NumaModel).
  void bind_domains(const NumaModel& numa) const;

  EdgeOrder order_ = EdgeOrder::kSource;
  std::vector<eid_t> offsets_;    // P+1
  std::vector<Edge> edges_;       // |E|, partition-major
  std::vector<CooChunk> chunks_;  // cached atomics-mode work list
};

}  // namespace grind::partition
