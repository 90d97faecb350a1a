// The composite multi-layout graph of §III-A/B.
//
// GraphGrind-v2 "stores 3 copies" of the graph, one per frontier regime:
//   1. an unpartitioned CSR  — sparse frontiers, forward traversal;
//   2. an unpartitioned CSC  — medium-dense frontiers, backward traversal
//      with a *partitioned computation range* (partitioning-by-destination
//      leaves CSC edge order unchanged, §II-C, so the index itself is whole);
//   3. a partitioned COO     — dense frontiers, aggressively partitioned.
//
// The composite also carries two partitionings (edge-balanced and
// vertex-balanced, §III-D) so the engine can pick the balance criterion
// matching the algorithm's orientation, the logical NUMA model, and
// optionally a partitioned pruned CSR for the Fig 5/6 layout studies.
#pragma once

#include <memory>
#include <optional>
#include <stdexcept>

#include <string>

#include "algorithms/params.hpp"
#include "graph/csr.hpp"
#include "graph/edge_list.hpp"
#include "graph/reorder.hpp"
#include "partition/partitioned_coo.hpp"
#include "partition/partitioned_csr.hpp"
#include "partition/partitioner.hpp"
#include "partition/registry.hpp"
#include "sys/numa.hpp"
#include "sys/types.hpp"

namespace grind::graph {

/// Build-time configuration for the composite graph.
struct BuildOptions {
  /// Vertex relabeling applied before partitioning (pipeline stage 1); the
  /// resulting VertexRemap is carried by the Graph and algorithm entry
  /// points translate so callers always speak original IDs.
  VertexOrdering ordering = VertexOrdering::kOriginal;
  /// COO partition count; 0 = auto (the paper's default 384, rounded to a
  /// NUMA-admissible multiple and capped by what alignment allows).
  part_t num_partitions = 0;
  /// Intra-partition COO edge order (§IV-C).
  partition::EdgeOrder coo_order = partition::EdgeOrder::kSource;
  /// Partitioning strategy, looked up in the PartitionerRegistry
  /// (partition/registry.hpp).  The default is the paper's Algorithm-1
  /// contiguous split; any registered strategy composes through the
  /// builder's assign stage with no other knob changing meaning.
  std::string partitioner = partition::kContiguousPartitioner;
  /// Strategy parameters ("--ppart key=value" in ggtool), validated
  /// against the strategy's declared schema.  After a build this holds the
  /// schema-resolved bag (defaults filled in), like num_partitions holds
  /// the resolved count.
  algorithms::Params partitioner_params;
  /// Partition boundary alignment in vertices; 64 keeps bitmap writes
  /// single-writer.  Tests may lower it.
  vid_t boundary_align = 64;
  /// Logical NUMA domains (paper: 4).
  int numa_domains = NumaModel::kDefaultDomains;
  /// Also build the partitioned pruned CSR (costs r(p)·|V| extra vertex
  /// slots; needed only by the Fig 5/6 experiments).
  bool build_partitioned_csr = false;

  /// The paper's default partitioning degree for the COO layout (§IV-E).
  static constexpr part_t kDefaultPartitions = 384;
};

class GraphBuilder;

/// Immutable composite graph.  Movable, non-copyable (layouts are large).
class Graph {
 public:
  Graph() = default;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  /// Build every layout from an edge list by running the full GraphBuilder
  /// pipeline (order → partition → layouts).  The (ordered) edge list is
  /// retained for analysis passes (replication counts, relayout
  /// experiments).  Stage-by-stage construction: graph/builder.hpp.
  static Graph build(EdgeList el, BuildOptions opts = {});

  [[nodiscard]] vid_t num_vertices() const { return csr_.num_vertices(); }
  [[nodiscard]] eid_t num_edges() const { return csr_.num_edges(); }

  /// Whole-graph CSR (out-edges) — sparse forward traversal.
  [[nodiscard]] const Csr& csr() const { return csr_; }
  /// Whole-graph CSC (in-edges) — medium-dense backward traversal.
  [[nodiscard]] const Csr& csc() const { return csc_; }
  /// Partitioned COO — dense traversal.
  [[nodiscard]] const partition::PartitionedCoo& coo() const { return coo_; }

  /// Edge-balanced partitioning (drives the COO layout and edge-oriented
  /// computation ranges).
  [[nodiscard]] const partition::Partitioning& partitioning_edges() const {
    return part_edges_;
  }
  /// Vertex-balanced partitioning (computation ranges for vertex-oriented
  /// algorithms, §III-D).
  [[nodiscard]] const partition::Partitioning& partitioning_vertices() const {
    return part_vertices_;
  }

  [[nodiscard]] bool has_partitioned_csr() const { return pcsr_ != nullptr; }
  [[nodiscard]] const partition::PartitionedCsr& partitioned_csr() const {
    if (pcsr_ == nullptr)
      throw std::logic_error(
          "partitioned CSR not built; set BuildOptions::build_partitioned_csr");
    return *pcsr_;
  }

  [[nodiscard]] const NumaModel& numa() const { return numa_; }
  /// The retained edge list, in *internal* ID space (ordered by the
  /// build's VertexOrdering; identical to the input under kOriginal).
  [[nodiscard]] const EdgeList& edge_list() const { return el_; }
  [[nodiscard]] const BuildOptions& build_options() const { return opts_; }

  /// The original↔internal vertex-ID bijection of the build's ordering.
  /// Every layout accessor above speaks internal IDs; user-facing
  /// boundaries (algorithm sources/results, ggtool) speak original IDs and
  /// translate through this remap.
  [[nodiscard]] const VertexRemap& remap() const { return remap_; }
  [[nodiscard]] vid_t to_internal(vid_t original) const {
    return remap_.to_internal(original);
  }
  [[nodiscard]] vid_t to_original(vid_t internal) const {
    return remap_.to_original(internal);
  }

  [[nodiscard]] eid_t out_degree(vid_t v) const { return csr_.degree(v); }
  [[nodiscard]] eid_t in_degree(vid_t v) const { return csc_.degree(v); }

  /// The conventional BFS/BC/SSSP source: a vertex of maximal out-degree,
  /// ties broken by smallest original ID so the pick names the same vertex
  /// under every VertexOrdering of the same graph.  Returned in
  /// original-ID space, ready to pass to the algorithms.
  [[nodiscard]] vid_t max_out_degree_source() const;

 private:
  friend class GraphBuilder;

  EdgeList el_;
  BuildOptions opts_;
  VertexRemap remap_;
  Csr csr_;
  Csr csc_;
  partition::Partitioning part_edges_;
  partition::Partitioning part_vertices_;
  partition::PartitionedCoo coo_;
  std::unique_ptr<partition::PartitionedCsr> pcsr_;
  NumaModel numa_{NumaModel::kDefaultDomains};
};

}  // namespace grind::graph
