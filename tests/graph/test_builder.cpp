#include "graph/builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/generators.hpp"

namespace grind::graph {
namespace {

TEST(GraphBuilder, StagedBuildMatchesMonolithicBuild) {
  const EdgeList el = rmat(9, 6, 11);
  BuildOptions opts;
  opts.num_partitions = 16;

  const Graph mono = Graph::build(EdgeList(el), opts);
  GraphBuilder b(EdgeList(el), opts);
  b.order().partition().layouts();
  const Graph staged = std::move(b).build();

  ASSERT_EQ(staged.num_vertices(), mono.num_vertices());
  ASSERT_EQ(staged.num_edges(), mono.num_edges());
  ASSERT_EQ(staged.partitioning_edges().num_partitions(),
            mono.partitioning_edges().num_partitions());
  for (part_t p = 0; p < mono.partitioning_edges().num_partitions(); ++p) {
    EXPECT_EQ(staged.partitioning_edges().range(p).begin,
              mono.partitioning_edges().range(p).begin);
    EXPECT_EQ(staged.partitioning_edges().range(p).end,
              mono.partitioning_edges().range(p).end);
  }
  for (vid_t v = 0; v < mono.num_vertices(); ++v)
    ASSERT_EQ(staged.out_degree(v), mono.out_degree(v));
}

TEST(GraphBuilder, DefaultBuildCarriesIdentityRemap) {
  const Graph g = Graph::build(rmat(8, 4, 3));
  EXPECT_TRUE(g.remap().is_identity());
  EXPECT_EQ(g.to_internal(7), 7u);
  EXPECT_EQ(g.to_original(7), 7u);
}

TEST(GraphBuilder, OrderingStageProducesConsistentRemapAndLayouts) {
  const EdgeList el = rmat(9, 6, 7);
  BuildOptions opts;
  opts.num_partitions = 8;
  opts.ordering = VertexOrdering::kDegreeDesc;
  const Graph g = Graph::build(EdgeList(el), opts);

  ASSERT_FALSE(g.remap().is_identity());
  const auto deg = el.out_degrees();
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(g.to_original(g.to_internal(v)), v);
    // The layouts are built over internal IDs: the CSR degree of the
    // internal image must equal the original vertex's degree.
    ASSERT_EQ(g.out_degree(g.to_internal(v)), deg[v]);
  }
  // Hub sort: internal vertex 0 has the maximum out-degree.
  for (vid_t v = 1; v < g.num_vertices(); ++v)
    ASSERT_GE(g.out_degree(0), g.out_degree(v));
  // The retained edge list is the ordered one.
  const auto rdeg = g.edge_list().out_degrees();
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(rdeg[v], g.out_degree(v));
}

TEST(GraphBuilder, CooOrderChangesOnlyTheCoo) {
  const EdgeList el = rmat(9, 6, 13);
  BuildOptions opts;
  opts.num_partitions = 8;
  opts.ordering = VertexOrdering::kHilbert;
  const Graph g1 = Graph::build(EdgeList(el), opts);
  opts.coo_order = partition::EdgeOrder::kHilbert;
  const Graph g2 = Graph::build(EdgeList(el), opts);

  // Same remap, partition ranges and CSR either way; only the COO bucket
  // order differs.
  for (vid_t v = 0; v < g1.num_vertices(); ++v)
    ASSERT_EQ(g1.to_original(v), g2.to_original(v));
  EXPECT_EQ(g1.partitioning_edges().ranges(), g2.partitioning_edges().ranges());
  EXPECT_EQ(g1.partitioning_vertices().ranges(),
            g2.partitioning_vertices().ranges());
  ASSERT_TRUE(std::ranges::equal(g1.csr().offsets(), g2.csr().offsets()));
  ASSERT_TRUE(std::ranges::equal(g1.csr().neighbors(), g2.csr().neighbors()));
  ASSERT_TRUE(std::ranges::equal(g1.coo().offsets(), g2.coo().offsets()));
  EXPECT_EQ(g1.coo().order(), partition::EdgeOrder::kSource);
  EXPECT_EQ(g2.coo().order(), partition::EdgeOrder::kHilbert);
  EXPECT_FALSE(std::ranges::equal(g1.coo().all_edges(), g2.coo().all_edges()));
}

TEST(GraphBuilder, ExplicitPartitionCountReachesEveryLayout) {
  BuildOptions opts;
  opts.num_partitions = 8;
  GraphBuilder b(rmat(9, 6, 23), opts);
  b.partition();
  EXPECT_EQ(b.options().num_partitions, 8u);
  EXPECT_EQ(b.partitioning_edges().num_partitions(), 8u);
  EXPECT_EQ(std::move(b).build().coo().num_partitions(), 8u);
}

TEST(GraphBuilder, RvalueBuildMovesEdgeList) {
  const EdgeList el = rmat(8, 4, 37);
  const eid_t m = el.num_edges();
  Graph g = GraphBuilder(EdgeList(el), {}).build();
  EXPECT_EQ(g.edge_list().num_edges(), m);
  EXPECT_EQ(g.num_edges(), m);
}

TEST(GraphBuilder, EveryOrderingBuildsAValidComposite) {
  const EdgeList el = rmat(8, 6, 41);
  for (const auto o : all_orderings()) {
    BuildOptions opts;
    opts.num_partitions = 8;
    opts.ordering = o;
    const Graph g = Graph::build(EdgeList(el), opts);
    ASSERT_EQ(g.num_vertices(), el.num_vertices()) << ordering_name(o);
    ASSERT_EQ(g.num_edges(), el.num_edges()) << ordering_name(o);
    ASSERT_EQ(g.csr().num_edges(), el.num_edges()) << ordering_name(o);
    ASSERT_EQ(g.csc().num_edges(), el.num_edges()) << ordering_name(o);
    ASSERT_EQ(g.coo().num_edges(), el.num_edges()) << ordering_name(o);
    ASSERT_EQ(g.build_options().ordering, o);
  }
}

}  // namespace
}  // namespace grind::graph
