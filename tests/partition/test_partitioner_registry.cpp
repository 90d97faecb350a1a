// PartitionerRegistry contract tests: the self-registered strategy set, the
// plan_assignment composition (assignment → VertexRemap + aligned ranges),
// the contiguous baseline's bit-for-bit identity with the direct Algorithm-1
// path, and the builder's end-to-end folding of a non-trivial assignment.
#include "partition/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "partition/partitioner.hpp"
#include "partition/replication.hpp"

namespace grind::partition {
namespace {

using graph::EdgeList;

PartitionOptions default_opts() { return PartitionOptions{}; }

// ---- registry contract ----------------------------------------------------

TEST(PartitionerRegistry, ShipsTheStrategySuite) {
  const auto& reg = PartitionerRegistry::instance();
  ASSERT_GE(reg.size(), 6u);  // the ISSUE-10 floor: contiguous + 5 more
  for (const char* name :
       {"contiguous", "random", "block", "dbh", "ldg", "fennel", "greedy"})
    EXPECT_NE(reg.find(name), nullptr) << name;
  // The baseline leads the listing so every surface shows it first.
  EXPECT_EQ(reg.names().front(), kContiguousPartitioner);
}

TEST(PartitionerRegistry, LookupContract) {
  const auto& reg = PartitionerRegistry::instance();
  EXPECT_EQ(reg.find("no-such-strategy"), nullptr);
  EXPECT_THROW(reg.at("no-such-strategy"), std::invalid_argument);
  EXPECT_EQ(&reg.at(kContiguousPartitioner),
            reg.find(kContiguousPartitioner));
  // entries() is sorted by (list_order, name) and matches names().
  const auto entries = reg.entries();
  const auto names = reg.names();
  ASSERT_EQ(entries.size(), names.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i]->name, names[i]);
    if (i > 0)
      EXPECT_LE(entries[i - 1]->list_order, entries[i]->list_order);
  }
}

TEST(PartitionerRegistry, EveryStrategyEmitsAValidDeterministicAssignment) {
  const EdgeList el = graph::rmat(9, 8, 7);
  const part_t p = 12;
  for (const auto* desc : PartitionerRegistry::instance().entries()) {
    SCOPED_TRACE(desc->name);
    const auto params = desc->resolve({});
    const auto a = desc->run(el, p, default_opts(), params);
    ASSERT_EQ(a.size(), el.num_vertices());
    for (part_t owner : a) ASSERT_LT(owner, p);
    EXPECT_TRUE(desc->caps.deterministic);
    const auto b = desc->run(el, p, default_opts(), params);
    EXPECT_EQ(a, b) << "two runs with identical inputs disagreed";
  }
}

TEST(PartitionerRegistry, SchemaRejectsUnknownAndOutOfRangeParams) {
  const auto& desc = PartitionerRegistry::instance().at("fennel");
  algorithms::Params unknown;
  unknown.set("no_such_param", std::int64_t{1});
  EXPECT_THROW(desc.resolve(unknown), std::invalid_argument);
  algorithms::Params bad;
  bad.set("gamma", 0.5);  // below the schema's minimum of 1.0
  EXPECT_THROW(desc.resolve(bad), std::out_of_range);
  // Defaults fill in for an empty bag.
  const auto resolved = desc.resolve({});
  EXPECT_NEAR(resolved.get_real("gamma"), 1.5, 1e-12);
}

// ---- plan_assignment ------------------------------------------------------

TEST(PlanAssignment, MonotoneAssignmentCollapsesToIdentity) {
  //  vertices 0..9 pre-grouped as {0..3}→0, {4..6}→1, {7..9}→2
  const std::vector<part_t> a = {0, 0, 0, 0, 1, 1, 1, 2, 2, 2};
  const auto plan = plan_assignment(a, 3, 1);
  EXPECT_TRUE(plan.remap.is_identity());
  ASSERT_EQ(plan.ranges.size(), 3u);
  EXPECT_EQ(plan.ranges[0], (VertexRange{0, 4}));
  EXPECT_EQ(plan.ranges[1], (VertexRange{4, 7}));
  EXPECT_EQ(plan.ranges[2], (VertexRange{7, 10}));
}

TEST(PlanAssignment, StableSortGroupsByPartitionPreservingOrder) {
  const std::vector<part_t> a = {2, 0, 1, 0, 2, 1};
  const auto plan = plan_assignment(a, 3, 1);
  EXPECT_FALSE(plan.remap.is_identity());
  // Post-assignment order: partition 0's vertices in original order (1, 3),
  // then partition 1's (2, 5), then partition 2's (0, 4).
  const std::vector<vid_t> want = {1, 3, 2, 5, 0, 4};
  for (vid_t i = 0; i < 6; ++i)
    EXPECT_EQ(plan.remap.to_original(i), want[i]) << "internal id " << i;
  ASSERT_EQ(plan.ranges.size(), 3u);
  EXPECT_EQ(plan.ranges[0], (VertexRange{0, 2}));
  EXPECT_EQ(plan.ranges[1], (VertexRange{2, 4}));
  EXPECT_EQ(plan.ranges[2], (VertexRange{4, 6}));
}

TEST(PlanAssignment, BoundariesSnapUpToTheAlignment) {
  // 100 vertices split 30/30/40; with align 64 both interior boundaries
  // (cumulative 30 and 60) snap up to 64, exactly like Algorithm 1: the
  // first partition absorbs the second's vertices wholesale (it goes
  // empty), and the last runs to |V|.
  std::vector<part_t> a(100);
  for (vid_t v = 0; v < 100; ++v) a[v] = v < 30 ? 0 : (v < 60 ? 1 : 2);
  const auto plan = plan_assignment(a, 3, 64);
  ASSERT_EQ(plan.ranges.size(), 3u);
  EXPECT_EQ(plan.ranges[0], (VertexRange{0, 64}));
  EXPECT_EQ(plan.ranges[1], (VertexRange{64, 64}));
  EXPECT_EQ(plan.ranges[2], (VertexRange{64, 100}));
  // Quantisation moves range boundaries, never the sort: the remap is still
  // the stable by-partition order.
  EXPECT_TRUE(plan.remap.is_identity());
}

TEST(PlanAssignment, RejectsOutOfRangePartitionValues) {
  EXPECT_THROW(plan_assignment({0, 3, 1}, 3, 1), std::invalid_argument);
  EXPECT_THROW(plan_assignment({kInvalidVertex}, 4, 1),
               std::invalid_argument);
}

TEST(PlanAssignment, EmptyAssignment) {
  const auto plan = plan_assignment({}, 4, 64);
  EXPECT_TRUE(plan.remap.is_identity());
  ASSERT_EQ(plan.ranges.size(), 4u);
  for (const auto& r : plan.ranges) EXPECT_TRUE(r.empty());
}

// ---- contiguous baseline bit-for-bit --------------------------------------

TEST(PartitionerBuilder, ContiguousReproducesDirectPartitioningBitForBit) {
  const EdgeList el = graph::rmat(10, 8, 21);
  graph::BuildOptions bopts;
  bopts.num_partitions = 8;
  ASSERT_EQ(bopts.partitioner, kContiguousPartitioner);  // the default
  const graph::Graph g = graph::Graph::build(EdgeList(el), bopts);

  const Partitioning direct = make_partitioning(el, 8);
  const auto& built = g.partitioning_edges();
  ASSERT_EQ(built.num_partitions(), direct.num_partitions());
  for (part_t p = 0; p < direct.num_partitions(); ++p) {
    EXPECT_EQ(built.range(p), direct.range(p)) << "p=" << p;
    EXPECT_EQ(built.edges_in(p), direct.edges_in(p)) << "p=" << p;
  }
  EXPECT_DOUBLE_EQ(replication_factor(g.edge_list(), built),
                   replication_factor(el, direct));
  // The assign stage collapsed to the identity: the edge list is untouched.
  for (eid_t e = 0; e < el.num_edges(); ++e) {
    EXPECT_EQ(g.edge_list().edge(e).src, el.edge(e).src);
    EXPECT_EQ(g.edge_list().edge(e).dst, el.edge(e).dst);
  }
}

// ---- builder composition with a real permuting strategy --------------------

TEST(PartitionerBuilder, AssignmentFoldsIntoContiguousAlignedRanges) {
  const EdgeList el = graph::rmat(9, 8, 33);
  for (const char* name : {"random", "ldg", "greedy"}) {
    SCOPED_TRACE(name);
    graph::BuildOptions bopts;
    bopts.num_partitions = 8;
    bopts.partitioner = name;
    graph::GraphBuilder b(EdgeList(el), bopts);
    b.partition();

    // Downstream sees a contiguous partitioning again: disjoint aligned
    // ranges covering [0, |V|), edge counts partitioning the edge set.
    const auto& parts = b.partitioning_edges();
    vid_t cursor = 0;
    eid_t total = 0;
    for (part_t p = 0; p < parts.num_partitions(); ++p) {
      EXPECT_EQ(parts.range(p).begin, cursor);
      if (p + 1 < parts.num_partitions()) {
        const vid_t end = parts.range(p).end;
        EXPECT_TRUE(end % 64 == 0 || end == el.num_vertices())
            << "p=" << p << " end=" << end;
      }
      cursor = parts.range(p).end;
      total += parts.edges_in(p);
    }
    EXPECT_EQ(cursor, el.num_vertices());
    EXPECT_EQ(total, el.num_edges());

    // The composed remap is a bijection that round-trips every vertex, and
    // the relabeled edge list is the original translated through it.
    const auto& remap = b.remap();
    std::set<vid_t> seen;
    for (vid_t v = 0; v < el.num_vertices(); ++v) {
      EXPECT_EQ(remap.to_original(remap.to_internal(v)), v);
      seen.insert(remap.to_internal(v));
    }
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(el.num_vertices()));
    const auto& rel = b.edge_list();
    ASSERT_EQ(rel.num_edges(), el.num_edges());
    for (eid_t e = 0; e < el.num_edges(); ++e) {
      EXPECT_EQ(rel.edge(e).src, remap.to_internal(el.edge(e).src));
      EXPECT_EQ(rel.edge(e).dst, remap.to_internal(el.edge(e).dst));
    }

    // Post-build, BuildOptions carries the schema-resolved parameter bag.
    const graph::Graph g = std::move(b).build();
    EXPECT_EQ(g.build_options().partitioner, name);
  }
}

TEST(PartitionerBuilder, UnknownStrategyAndBadParamsSurfaceAtAssign) {
  const EdgeList el = graph::rmat(6, 4, 3);
  {
    graph::BuildOptions bopts;
    bopts.partitioner = "no-such-strategy";
    graph::GraphBuilder b(EdgeList(el), bopts);
    EXPECT_THROW(b.assign(), std::invalid_argument);
  }
  {
    graph::BuildOptions bopts;
    bopts.partitioner = "ldg";
    bopts.partitioner_params.set("slack", 0.25);  // below the minimum
    graph::GraphBuilder b(EdgeList(el), bopts);
    EXPECT_THROW(b.assign(), std::out_of_range);
  }
}

}  // namespace
}  // namespace grind::partition
