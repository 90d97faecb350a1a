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
    : el_(std::move(el)), opts_(std::move(opts)), numa_(opts_.numa_domains) {}

GraphBuilder& GraphBuilder::order() {
  if (stage_ >= Stage::kOrdered) return *this;
  remap_ = make_vertex_remap(el_, opts_.ordering);
  if (!remap_.is_identity()) el_ = apply_vertex_remap(el_, remap_);
  stage_ = Stage::kOrdered;
  return *this;
}

void GraphBuilder::resolve_partition_count() {
  // The paper's 384 by default, rounded to a NUMA-admissible multiple, but
  // capped so that (a) alignment stays non-degenerate (each partition ≥ one
  // bitmap word of vertices) and (b) partitions hold enough edges that
  // per-partition scheduling overhead does not dominate on small graphs.
  part_t p = opts_.num_partitions;
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
  if (stage_ >= Stage::kAssigned) return *this;
  resolve_partition_count();

  const partition::PartitionerDesc& desc =
      partition::PartitionerRegistry::instance().at(opts_.partitioner);
  // Like num_partitions, the options the Graph carries hold the resolved
  // bag so stats/reports show the defaults the strategy actually saw.
  opts_.partitioner_params = desc.resolve(opts_.partitioner_params);

  partition::PartitionOptions popts;
  popts.by = partition::PartitionBy::kDestination;
  popts.balance = partition::BalanceMode::kEdges;
  popts.boundary_align = opts_.boundary_align;

  const std::vector<part_t> assignment =
      desc.run(el_, opts_.num_partitions, popts, opts_.partitioner_params);
  partition::AssignmentPlan plan = partition::plan_assignment(
      assignment, opts_.num_partitions, opts_.boundary_align);

  if (!plan.remap.is_identity()) {
    el_ = apply_vertex_remap(el_, plan.remap);
    // Compose: final internal ← assignment sort ← ordering ← original.
    std::vector<vid_t> to_original(el_.num_vertices());
    for (vid_t i = 0; i < el_.num_vertices(); ++i)
      to_original[i] = remap_.to_original(plan.remap.to_original(i));
    remap_ = VertexRemap::from_internal_order(std::move(to_original));
  }
  assign_ranges_ = std::move(plan.ranges);
  stage_ = Stage::kAssigned;
  return *this;
}

GraphBuilder& GraphBuilder::partition() {
  assign();
  if (stage_ >= Stage::kPartitioned) return *this;

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
  stage_ = Stage::kPartitioned;
  return *this;
}

GraphBuilder& GraphBuilder::layouts() {
  partition();
  if (stage_ >= Stage::kLaidOut) return *this;
  csr_ = Csr::build(el_, Adjacency::kOut);
  csc_ = csr_.transpose();
  // Row slices follow the edge-balanced partitioning: the CSC computation
  // range and the COO buckets both live on it, so its domains are the
  // ones whose threads touch these pages.
  place_csr_domains(csr_, part_edges_, numa_);
  place_csr_domains(csc_, part_edges_, numa_);
  coo_ = partition::PartitionedCoo::build(csr_, csc_, part_edges_,
                                          opts_.coo_order, &numa_);
  if (opts_.build_partitioned_csr)
    pcsr_ = std::make_unique<partition::PartitionedCsr>(
        partition::PartitionedCsr::build(el_, part_edges_, &numa_));
  stage_ = Stage::kLaidOut;
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
