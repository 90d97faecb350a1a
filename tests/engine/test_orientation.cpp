// Orientation-aware routing (§IV-A): dense frontiers of vertex-oriented
// algorithms stay on the backward CSC; edge-oriented ones go to the COO.
#include <gtest/gtest.h>

#include "algorithms/bc.hpp"
#include "algorithms/bellman_ford.hpp"
#include "algorithms/bfs.hpp"
#include "algorithms/kcore.hpp"
#include "engine/edge_map.hpp"
#include "engine/engine.hpp"
#include "graph/generators.hpp"

namespace grind::engine {
namespace {

/// A graph whose edge- and vertex-balanced partitionings split into
/// different numbers of CSC sub-chunks, so a backward sweep's chunk count
/// tells which of the two it ran over.
graph::Graph two_balance_graph() {
  graph::BuildOptions bopts;
  bopts.num_partitions = 8;
  return graph::Graph::build(graph::rmat(12, 8, 3), bopts);
}

/// Chunks one forced backward-CSC sweep over the full frontier ran.
std::uint64_t backward_sweep_chunks(Engine& eng) {
  const Layout saved = eng.options().layout;
  eng.options().layout = Layout::kBackwardCsc;
  eng.reset_stats();
  auto op = make_symmetric_op([](vid_t, vid_t, weight_t) { return false; },
                              [](vid_t) { return true; });
  const graph::Graph& g = eng.graph();
  Frontier all = Frontier::all(g.num_vertices(), &g.csr());
  eng.edge_map(all, op);
  eng.options().layout = saved;
  const AffineCounts& a = eng.stats().affinity;
  return a.home_items + a.stolen_items;
}

TEST(Orientation, DenseRoutingFollowsOrientation) {
  const eid_t m = 2000;
  Options opts;  // default orientation: edge
  EXPECT_EQ(decide_traversal(1500, m, opts), TraversalKind::kDenseCoo);
  opts.orientation = Orientation::kVertex;
  EXPECT_EQ(decide_traversal(1500, m, opts), TraversalKind::kBackwardCsc);
  // Forcing still wins over orientation.
  opts.layout = Layout::kDenseCoo;
  EXPECT_EQ(decide_traversal(1500, m, opts), TraversalKind::kDenseCoo);
}

TEST(Orientation, MediumAndSparseUnaffected) {
  const eid_t m = 2000;
  Options opts;
  opts.orientation = Orientation::kVertex;
  EXPECT_EQ(decide_traversal(500, m, opts), TraversalKind::kBackwardCsc);
  EXPECT_EQ(decide_traversal(50, m, opts), TraversalKind::kSparseCsr);
}

TEST(Orientation, EngineSetterUpdatesBalanceAndRouting) {
  const auto g = two_balance_graph();
  const std::size_t by_edges = g.partitioning_edges().sub_chunks().size();
  const std::size_t by_vertices =
      g.partitioning_vertices().sub_chunks().size();
  ASSERT_NE(by_edges, by_vertices);
  Engine eng(g);
  EXPECT_EQ(eng.orientation(), Orientation::kEdge);
  EXPECT_EQ(backward_sweep_chunks(eng), by_edges);
  eng.set_orientation(Orientation::kVertex);
  EXPECT_EQ(eng.orientation(), Orientation::kVertex);
  EXPECT_EQ(eng.options().orientation, Orientation::kVertex);
  EXPECT_EQ(backward_sweep_chunks(eng), by_vertices);
  eng.set_orientation(Orientation::kEdge);
  EXPECT_EQ(backward_sweep_chunks(eng), by_edges);
}

TEST(Orientation, VertexOrientedOptionsSurviveVertexOrientedAlgorithms) {
  // An engine configured vertex-oriented through its Options reports that
  // orientation, balances the backward sweep by vertices, and keeps both
  // after the algorithms that switch orientation for their run and
  // restore it on exit.
  const auto g = two_balance_graph();
  const std::size_t by_vertices =
      g.partitioning_vertices().sub_chunks().size();
  Options opts;
  opts.orientation = Orientation::kVertex;
  Engine eng(g, opts);
  EXPECT_EQ(eng.orientation(), Orientation::kVertex);
  EXPECT_EQ(backward_sweep_chunks(eng), by_vertices);
  algorithms::bfs(eng, 0);
  EXPECT_EQ(eng.orientation(), Orientation::kVertex);
  algorithms::betweenness_centrality(eng, 0);
  EXPECT_EQ(eng.orientation(), Orientation::kVertex);
  algorithms::bellman_ford(eng, 0);
  EXPECT_EQ(eng.orientation(), Orientation::kVertex);
  algorithms::kcore(eng);
  EXPECT_EQ(eng.options().orientation, Orientation::kVertex);
  EXPECT_EQ(backward_sweep_chunks(eng), by_vertices);
}

TEST(Orientation, VertexOrientedDenseRoundUsesCscKernel) {
  const auto g = graph::Graph::build(graph::rmat(9, 8, 3));
  Engine eng(g);
  eng.set_orientation(Orientation::kVertex);
  auto op = make_symmetric_op([](vid_t, vid_t, weight_t) { return false; },
                              [](vid_t) { return true; });
  Frontier all = Frontier::all(g.num_vertices(), &g.csr());
  eng.edge_map(all, op);
  EXPECT_EQ(
      eng.stats().calls[static_cast<int>(TraversalKind::kBackwardCsc)], 1u);
  EXPECT_EQ(eng.stats().calls[static_cast<int>(TraversalKind::kDenseCoo)],
            0u);
}

TEST(Orientation, CscSubChunksCoverRangesAndAlign) {
  const auto el = graph::rmat(10, 8, 3);
  const auto parts = partition::make_partitioning(el, 8);
  const auto& chunks = parts.sub_chunks();
  // Coverage: concatenation of chunks == concatenation of ranges.
  vid_t cursor = 0;
  for (const auto& c : chunks) {
    EXPECT_EQ(c.begin, cursor);
    cursor = c.end;
  }
  EXPECT_EQ(cursor, el.num_vertices());
  // Alignment: every interior boundary is word-aligned (or a partition
  // boundary, which is itself aligned).
  for (std::size_t i = 0; i + 1 < chunks.size(); ++i)
    EXPECT_TRUE(chunks[i].end % 64 == 0 || chunks[i].end == el.num_vertices());
}

}  // namespace
}  // namespace grind::engine
