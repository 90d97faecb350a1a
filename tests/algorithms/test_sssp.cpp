#include "algorithms/bellman_ford.hpp"

#include <gtest/gtest.h>

#include "common/test_names.hpp"

#include <cmath>

#include "algorithms/ref/reference.hpp"
#include "engine/engine.hpp"
#include "graph/generators.hpp"
#include "sys/parallel.hpp"

namespace grind::algorithms {
namespace {

using engine::Engine;
using engine::Layout;
using engine::Options;
using graph::Graph;

void expect_dist_match(const graph::EdgeList& el,
                       const std::vector<double>& got, vid_t source) {
  const auto want = ref::sssp_dijkstra(el, source);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t v = 0; v < want.size(); ++v) {
    if (std::isinf(want[v])) {
      ASSERT_TRUE(std::isinf(got[v])) << "v=" << v;
    } else {
      ASSERT_NEAR(got[v], want[v], 1e-9) << "v=" << v;
    }
  }
}

class BfLayouts : public ::testing::TestWithParam<Layout> {};

TEST_P(BfLayouts, DistancesMatchDijkstraOnRmat) {
  const auto el = graph::rmat(9, 8, 3);
  graph::BuildOptions b;
  b.build_partitioned_csr = true;
  b.num_partitions = 16;
  const Graph g = Graph::build(graph::EdgeList(el), b);
  Options opts;
  opts.layout = GetParam();
  Engine eng(g, opts);
  const auto r = bellman_ford(eng, 0);
  expect_dist_match(el, r.dist, 0);
}

INSTANTIATE_TEST_SUITE_P(AllLayouts, BfLayouts,
                         ::testing::Values(Layout::kAuto, Layout::kSparseCsr,
                                           Layout::kBackwardCsc,
                                           Layout::kDenseCoo,
                                           Layout::kPartitionedCsr),
                         [](const auto& info) {
                           return testing_support::layout_test_name(
                               info.param);
                         });

TEST(BellmanFord, RoadNetworkMatchesDijkstra) {
  const auto el = graph::road_lattice(25, 25, 0.15, 7);
  const Graph g = Graph::build(graph::EdgeList(el));
  Engine eng(g);
  const auto r = bellman_ford(eng, 12);
  expect_dist_match(el, r.dist, 12);
}

TEST(BellmanFord, AutoLayoutNeverPullsOnARoadLattice) {
  // BF's relaxation has no destination filter, so Algorithm 2 sends its
  // medium frontiers to the push instead of a full backward gather (which
  // could never exit early); a forced backward layout still pulls.
  const auto el = graph::road_lattice(96, 96, 0.05, 3);
  const Graph g = Graph::build(graph::EdgeList(el));
  const vid_t centre = 48 * 96 + 48;
  for (const int threads : {1, 4}) {
    ThreadCountGuard guard(threads);
    Engine eng(g);
    const auto r = bellman_ford(eng, centre);
    EXPECT_EQ(eng.stats().calls_for(engine::TraversalKind::kBackwardCsc), 0u)
        << "threads=" << threads;
    expect_dist_match(el, r.dist, centre);
  }
  Options forced;
  forced.layout = Layout::kBackwardCsc;
  Engine eng(g, forced);
  const auto r = bellman_ford(eng, centre);
  EXPECT_GT(eng.stats().calls_for(engine::TraversalKind::kBackwardCsc), 0u);
  expect_dist_match(el, r.dist, centre);
}

TEST(BellmanFord, SourceDistanceZeroUnreachedInfinite) {
  graph::EdgeList el = graph::path(5);
  el.set_num_vertices(8);
  const Graph g = Graph::build(std::move(el));
  Engine eng(g);
  const auto r = bellman_ford(eng, 0);
  EXPECT_DOUBLE_EQ(r.dist[0], 0.0);
  EXPECT_TRUE(std::isinf(r.dist[6]));
}

TEST(BellmanFord, PathDistancesAreWeightPrefixSums) {
  graph::EdgeList el;
  el.add(0, 1, 1.0f);
  el.add(1, 2, 2.0f);
  el.add(2, 3, 3.0f);
  const Graph g = Graph::build(std::move(el));
  Engine eng(g);
  const auto r = bellman_ford(eng, 0);
  EXPECT_DOUBLE_EQ(r.dist[1], 1.0);
  EXPECT_DOUBLE_EQ(r.dist[2], 3.0);
  EXPECT_DOUBLE_EQ(r.dist[3], 6.0);
}

TEST(BellmanFord, ShorterDetourWins) {
  // Direct heavy edge vs lighter two-hop path.
  graph::EdgeList el;
  el.add(0, 2, 10.0f);
  el.add(0, 1, 1.0f);
  el.add(1, 2, 1.0f);
  const Graph g = Graph::build(std::move(el));
  Engine eng(g);
  const auto r = bellman_ford(eng, 0);
  EXPECT_DOUBLE_EQ(r.dist[2], 2.0);
}

TEST(BellmanFord, ManySourcesOnPowerlaw) {
  const auto el = graph::powerlaw(1500, 2.0, 8.0, 13);
  const Graph g = Graph::build(graph::EdgeList(el));
  Engine eng(g);
  for (vid_t src : {0u, 3u, 700u}) {
    const auto r = bellman_ford(eng, src);
    expect_dist_match(el, r.dist, src);
  }
}

}  // namespace
}  // namespace grind::algorithms
