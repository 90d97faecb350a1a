#include "graph/builder.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "partition/registry.hpp"
#include "sys/arena.hpp"
#include "sys/parallel.hpp"

namespace grind::graph {

namespace {

/// Bind each partition's row slice of a whole-graph CSR/CSC index to the
/// owning domain's arena: offsets over the partition's vertex range, plus
/// the neighbor/weight spans those offsets cover.  The index stays one
/// contiguous array (sparse traversal needs O(1) row lookup), so this is
/// page-range placement, not per-partition allocation.
void place_csr_domains(const Csr& csr, const partition::Partitioning& parts,
                       const NumaModel& numa) {
  if (csr.num_vertices() == 0) return;
  auto& arenas = NumaArenas::instance();
  const part_t np = parts.num_partitions();
  const auto offsets = csr.offsets();
  const auto neighbors = csr.neighbors();
  const auto weights = csr.weights();
  for (part_t p = 0; p < np; ++p) {
    const VertexRange r = parts.range(p);
    if (r.empty()) continue;
    const int d = numa.domain_of_partition(p, np);
    arenas.place(offsets.data() + r.begin,
                 (static_cast<std::size_t>(r.size()) + 1) * sizeof(eid_t), d);
    const eid_t lo = offsets[r.begin], hi = offsets[r.end];
    arenas.place(neighbors.data() + lo, (hi - lo) * sizeof(vid_t), d);
    arenas.place(weights.data() + lo, (hi - lo) * sizeof(weight_t), d);
  }
}

}  // namespace

GraphBuilder::GraphBuilder(EdgeList el, BuildOptions opts)
    : el_(std::move(el)),
      opts_(opts),
      requested_partitions_(opts.num_partitions),
      requested_ppart_(opts.partitioner_params),
      numa_(opts.numa_domains) {}

void GraphBuilder::reset_relabel() {
  // order()/assign() permute el_ in place; before a new relabeling can be
  // computed the edge list must be restored to original IDs — otherwise
  // the next run would relabel an already-relabeled list and the remap
  // would no longer map the caller's ID space.  remap_ is the *composed*
  // (ordering ∘ assignment) bijection, so one undo covers both stages.
  if (order_done_ && !remap_.is_identity()) {
    el_ = apply_vertex_remap(el_, remap_, RemapDirection::kToOriginal);
    remap_ = VertexRemap();
  }
  assign_identity_ = true;
  order_done_ = assign_done_ = partition_done_ = index_done_ = coo_done_ =
      pcsr_done_ = false;
}

GraphBuilder& GraphBuilder::with_ordering(VertexOrdering o) {
  if (opts_.ordering != o) {
    opts_.ordering = o;
    reset_relabel();
  }
  return *this;
}

GraphBuilder& GraphBuilder::with_partitions(part_t p) {
  if (requested_partitions_ != p) {
    requested_partitions_ = p;
    opts_.num_partitions = p;
    if (assign_done_ && !assign_identity_) {
      // The folded-in assignment permutation depends on P; unwind it so
      // the strategy can re-run against the freshly ordered edge list.
      reset_relabel();
    } else {
      assign_done_ = partition_done_ = coo_done_ = pcsr_done_ = false;
      // The CSR/CSC arrays themselves survive a partition change, but
      // their page placement follows partition boundaries and must be
      // redone.
      index_placed_ = false;
    }
  }
  return *this;
}

GraphBuilder& GraphBuilder::with_partitioner(std::string name,
                                             algorithms::Params params) {
  // Params carries no operator==; the canonical fingerprint (stable,
  // bit-exact — params.hpp) is the equality the result cache already
  // trusts, so reuse it for change detection.
  const bool same =
      opts_.partitioner == name &&
      algorithms::canonical_fingerprint(requested_ppart_) ==
          algorithms::canonical_fingerprint(params);
  if (!same) {
    opts_.partitioner = std::move(name);
    requested_ppart_ = std::move(params);
    opts_.partitioner_params = requested_ppart_;
    if (assign_done_ && !assign_identity_) {
      reset_relabel();
    } else {
      assign_done_ = partition_done_ = coo_done_ = pcsr_done_ = false;
      index_placed_ = false;
    }
  }
  return *this;
}

GraphBuilder& GraphBuilder::with_coo_order(partition::EdgeOrder o) {
  if (opts_.coo_order != o) {
    opts_.coo_order = o;
    coo_done_ = false;
  }
  return *this;
}

GraphBuilder& GraphBuilder::with_partitioned_csr(bool on) {
  opts_.build_partitioned_csr = on;
  return *this;
}

GraphBuilder& GraphBuilder::order() {
  if (order_done_) return *this;
  remap_ = make_vertex_remap(el_, opts_.ordering);
  if (!remap_.is_identity()) el_ = apply_vertex_remap(el_, remap_);
  order_done_ = true;
  return *this;
}

void GraphBuilder::resolve_partition_count() {
  // The paper's 384 by default, rounded to a NUMA-admissible multiple, but
  // capped so that (a) alignment stays non-degenerate (each partition ≥ one
  // bitmap word of vertices) and (b) partitions hold enough edges that
  // per-partition scheduling overhead does not dominate on small graphs.
  part_t p = requested_partitions_;
  if (p == 0) {
    const vid_t align = std::max<vid_t>(opts_.boundary_align, 1);
    const part_t max_by_align =
        static_cast<part_t>(std::max<vid_t>(1, el_.num_vertices() / align));
    constexpr eid_t kMinEdgesPerPartition = 4096;
    const part_t max_by_edges = static_cast<part_t>(
        std::max<eid_t>(static_cast<eid_t>(num_threads()),
                        el_.num_edges() / kMinEdgesPerPartition));
    p = std::min(
        {BuildOptions::kDefaultPartitions, max_by_align, max_by_edges});
  }
  opts_.num_partitions = numa_.admissible_partitions(p);
}

GraphBuilder& GraphBuilder::assign() {
  order();
  if (assign_done_) return *this;
  resolve_partition_count();

  const partition::PartitionerDesc& desc =
      partition::PartitionerRegistry::instance().at(opts_.partitioner);
  const algorithms::Params resolved = desc.resolve(requested_ppart_);

  partition::PartitionOptions popts;
  popts.by = partition::PartitionBy::kDestination;
  popts.balance = partition::BalanceMode::kEdges;
  popts.boundary_align = opts_.boundary_align;

  const std::vector<part_t> assignment =
      desc.run(el_, opts_.num_partitions, popts, resolved);
  partition::AssignmentPlan plan = partition::plan_assignment(
      assignment, opts_.num_partitions, opts_.boundary_align);

  assign_identity_ = plan.remap.is_identity();
  if (!assign_identity_) {
    el_ = apply_vertex_remap(el_, plan.remap);
    // Compose: final internal ← assignment sort ← ordering ← original.
    std::vector<vid_t> to_original(el_.num_vertices());
    for (vid_t i = 0; i < el_.num_vertices(); ++i)
      to_original[i] = remap_.to_original(plan.remap.to_original(i));
    remap_ = VertexRemap::from_internal_order(std::move(to_original));
    // el_ was just re-permuted; any layout built over the old numbering
    // is stale even if its done-flag survived a cheap setter path.
    index_done_ = coo_done_ = pcsr_done_ = false;
  }
  assign_ranges_ = std::move(plan.ranges);
  // Like num_partitions, the options the Graph carries hold the resolved
  // bag so stats/reports show the defaults the strategy actually saw.
  opts_.partitioner_params = resolved;
  assign_done_ = true;
  return *this;
}

GraphBuilder& GraphBuilder::partition() {
  assign();
  if (partition_done_) return *this;

  partition::PartitionOptions popts;
  popts.by = partition::PartitionBy::kDestination;
  popts.boundary_align = opts_.boundary_align;
  popts.balance = partition::BalanceMode::kEdges;
  // The edge-balanced partitioning adopts the assign stage's ranges (for
  // the contiguous baseline these are exactly Algorithm 1's boundaries);
  // its per-partition edge counts are the in-degree mass each range holds
  // under partition-by-destination.
  {
    const std::vector<eid_t> degrees = el_.in_degrees();
    std::vector<eid_t> counts(assign_ranges_.size(), 0);
    std::vector<eid_t> cum(degrees.size() + 1, 0);
    for (std::size_t v = 0; v < degrees.size(); ++v)
      cum[v + 1] = cum[v] + degrees[v];
    for (std::size_t p = 0; p < assign_ranges_.size(); ++p)
      counts[p] = cum[assign_ranges_[p].end] - cum[assign_ranges_[p].begin];
    part_edges_ = partition::Partitioning(assign_ranges_, std::move(counts),
                                          popts);
  }
  popts.balance = partition::BalanceMode::kVertices;
  part_vertices_ =
      partition::make_partitioning(el_, opts_.num_partitions, popts);
  partition_done_ = true;
  return *this;
}

GraphBuilder& GraphBuilder::layouts() {
  partition();
  if (!index_done_) {
    csr_ = Csr::build(el_, Adjacency::kOut);
    csc_ = csr_.transpose();
    index_done_ = true;
    index_placed_ = false;
  }
  if (!index_placed_) {
    // Row slices follow the edge-balanced partitioning: the CSC computation
    // range and the COO buckets both live on it, so its domains are the
    // ones whose threads touch these pages.  Placement is tracked
    // separately from index_done_ — with_partitions() keeps the index but
    // moves the boundaries, which must re-place the pages.
    place_csr_domains(csr_, part_edges_, numa_);
    place_csr_domains(csc_, part_edges_, numa_);
    index_placed_ = true;
  }
  if (!coo_done_) {
    coo_ = partition::PartitionedCoo::build(csr_, csc_, part_edges_,
                                            opts_.coo_order, &numa_);
    coo_done_ = true;
  }
  if (opts_.build_partitioned_csr) {
    if (!pcsr_done_) {
      pcsr_ = std::make_unique<partition::PartitionedCsr>(
          partition::PartitionedCsr::build(el_, part_edges_, &numa_));
      pcsr_done_ = true;
    }
  } else {
    pcsr_.reset();
    pcsr_done_ = false;
  }
  return *this;
}

const EdgeList& GraphBuilder::edge_list() { return order().el_; }
const VertexRemap& GraphBuilder::remap() { return order().remap_; }
const partition::Partitioning& GraphBuilder::partitioning_edges() {
  return partition().part_edges_;
}
const partition::Partitioning& GraphBuilder::partitioning_vertices() {
  return partition().part_vertices_;
}

Graph GraphBuilder::build() & {
  layouts();
  Graph g;
  g.el_ = el_;
  g.opts_ = opts_;
  g.remap_ = remap_;
  g.csr_ = csr_;
  g.csc_ = csc_;
  g.part_edges_ = part_edges_;
  g.part_vertices_ = part_vertices_;
  g.coo_ = coo_;
  if (pcsr_) g.pcsr_ = std::make_unique<partition::PartitionedCsr>(*pcsr_);
  g.numa_ = numa_;
  // The copies above sit in fresh buffers the builder's page placement did
  // not follow; re-bind them so a graph from the reusable lvalue path is
  // placed like one from the moving path.  (The pruned CSR needs no help:
  // its DomainVectors copy through their domain's allocator.)
  g.coo_.bind_domains(numa_);
  place_csr_domains(g.csr_, g.part_edges_, numa_);
  place_csr_domains(g.csc_, g.part_edges_, numa_);
  return g;
}

Graph GraphBuilder::build() && {
  layouts();
  Graph g;
  g.el_ = std::move(el_);
  g.opts_ = opts_;
  g.remap_ = std::move(remap_);
  g.csr_ = std::move(csr_);
  g.csc_ = std::move(csc_);
  g.part_edges_ = std::move(part_edges_);
  g.part_vertices_ = std::move(part_vertices_);
  g.coo_ = std::move(coo_);
  g.pcsr_ = std::move(pcsr_);
  g.numa_ = numa_;
  return g;
}

}  // namespace grind::graph
