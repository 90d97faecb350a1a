// Staged graph-construction pipeline:  order → assign → partition → layouts.
//
// Graph::build runs this pipeline end to end; the class exposes its stages
// so callers can time them one by one and inspect the products between
// them:
//
//   order      apply the BuildOptions::ordering vertex relabeling to the
//              edge list and record the VertexRemap (reorder.hpp);
//   assign     run the configured PartitionerRegistry strategy
//              (BuildOptions::partitioner) over the ordered edge list and
//              fold its vertex→partition assignment into the pipeline:
//              plan_assignment() turns it into a second VertexRemap
//              (vertices stably sorted by home partition) composed into
//              the build's remap, plus the aligned contiguous ranges the
//              sorted vertices occupy.  The contiguous baseline emits a
//              monotone assignment, so the permutation collapses to the
//              identity and the stage reproduces the pre-registry build
//              bit-for-bit (docs/PARTITIONING.md);
//   partition  resolve the partition count and build both the edge- and
//              vertex-balanced partitionings over the final ID space;
//   layouts    build the CSR index (stable scatter + row sort), the CSC
//              as its transpose, the partitioned COO from both, and (on
//              request) the partitioned pruned CSR.
//
// The pipeline runs forward once, configured by the BuildOptions it was
// constructed with.  Each stage is idempotent and first runs the stages
// before it; `build() &&` runs whatever is left and moves the products
// into a Graph.  A build with different options is a new GraphBuilder.
#pragma once

#include <memory>

#include "graph/graph.hpp"
#include "graph/reorder.hpp"

namespace grind::graph {

class GraphBuilder {
 public:
  explicit GraphBuilder(EdgeList el, BuildOptions opts = {});

  // ---- stages (idempotent; each runs its prerequisites) ----
  GraphBuilder& order();
  GraphBuilder& assign();
  GraphBuilder& partition();
  GraphBuilder& layouts();

  // ---- inspection between stages ----
  [[nodiscard]] const BuildOptions& options() const { return opts_; }
  /// The ordered edge list (runs order()).
  const EdgeList& edge_list();
  /// The remap of the configured ordering (runs order()).
  const VertexRemap& remap();
  /// Partitionings over the ordered ID space (runs partition()).
  const partition::Partitioning& partitioning_edges();
  const partition::Partitioning& partitioning_vertices();

  /// Finish pending stages and move the products into a Graph.
  [[nodiscard]] Graph build() &&;

 private:
  /// The last stage that has run.
  enum class Stage { kNone, kOrdered, kAssigned, kPartitioned, kLaidOut };

  void resolve_partition_count();

  EdgeList el_;  // ordered in place once order()/assign() have run
  BuildOptions opts_;  // assign() resolves num_partitions and the params
  NumaModel numa_;
  Stage stage_ = Stage::kNone;

  VertexRemap remap_;
  /// Aligned contiguous ranges from the assign stage (the edge-balanced
  /// partitioning's ranges; its edge counts are recomputed by partition()).
  std::vector<VertexRange> assign_ranges_;
  partition::Partitioning part_edges_;
  partition::Partitioning part_vertices_;
  Csr csr_;
  Csr csc_;
  partition::PartitionedCoo coo_;
  std::unique_ptr<partition::PartitionedCsr> pcsr_;
};

}  // namespace grind::graph
