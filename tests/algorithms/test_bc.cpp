#include "algorithms/bc.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "common/test_names.hpp"

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

void expect_bc_match(const graph::EdgeList& el, const BcResult& got,
                     vid_t source, double tol = 1e-9) {
  const auto want = ref::bc_dependency(el, source);
  ASSERT_EQ(got.dependency.size(), want.size());
  for (std::size_t v = 0; v < want.size(); ++v)
    ASSERT_NEAR(got.dependency[v], want[v], tol) << "v=" << v;
}

class BcLayouts : public ::testing::TestWithParam<Layout> {};

TEST_P(BcLayouts, DependenciesMatchBrandesOnRmat) {
  const auto el = graph::rmat(9, 6, 3);
  const Graph g = Graph::build(graph::EdgeList(el));
  Options opts;
  opts.layout = GetParam();
  Engine eng(g, opts);
  const BcResult r = betweenness_centrality(eng, 0);
  expect_bc_match(el, r, 0);
}

// kPartitionedCsr excluded: this graph is built without the pruned CSR,
// which the forward BFS phase would need.  The layout only steers the
// forward phase; the backward phase is a pull over the CSR at every layout.
INSTANTIATE_TEST_SUITE_P(Layouts, BcLayouts,
                         ::testing::Values(Layout::kAuto, Layout::kSparseCsr,
                                           Layout::kBackwardCsc,
                                           Layout::kDenseCoo),
                         [](const auto& info) {
                           return testing_support::layout_test_name(
                               info.param);
                         });

TEST(Bc, PathGraphDependencies) {
  // On a directed path 0→1→2→3→4 from source 0: δ(v) = #descendants.
  const Graph g = Graph::build(graph::path(5));
  Engine eng(g);
  const BcResult r = betweenness_centrality(eng, 0);
  EXPECT_DOUBLE_EQ(r.dependency[0], 4.0);
  EXPECT_DOUBLE_EQ(r.dependency[1], 3.0);
  EXPECT_DOUBLE_EQ(r.dependency[2], 2.0);
  EXPECT_DOUBLE_EQ(r.dependency[3], 1.0);
  EXPECT_DOUBLE_EQ(r.dependency[4], 0.0);
}

TEST(Bc, DiamondSplitsPathCounts) {
  // 0→{1,2}→3: two shortest paths to 3; δ(1) = δ(2) = 1/2.
  graph::EdgeList el;
  el.add(0, 1);
  el.add(0, 2);
  el.add(1, 3);
  el.add(2, 3);
  const Graph g = Graph::build(std::move(el));
  Engine eng(g);
  const BcResult r = betweenness_centrality(eng, 0);
  EXPECT_DOUBLE_EQ(r.sigma[3], 2.0);
  EXPECT_DOUBLE_EQ(r.dependency[1], 0.5);
  EXPECT_DOUBLE_EQ(r.dependency[2], 0.5);
  // Brandes accumulation applied at the source too: Σ_u σ0/σu·(1+δu)
  // = 1·(1+0.5) + 1·(1+0.5) = 3 (callers exclude the source from
  // centrality totals).
  EXPECT_DOUBLE_EQ(r.dependency[0], 3.0);
}

TEST(Bc, SigmaCountsShortestPaths) {
  const auto el = graph::rmat(9, 6, 11);
  const Graph g = Graph::build(graph::EdgeList(el));
  Engine eng(g);
  const BcResult r = betweenness_centrality(eng, 0);
  // σ(source) = 1, σ > 0 exactly for reached vertices.
  EXPECT_DOUBLE_EQ(r.sigma[0], 1.0);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(r.sigma[v] > 0.0, r.level[v] >= 0) << "v=" << v;
  }
}

TEST(Bc, MultipleSourcesMatchReference) {
  const auto el = graph::powerlaw(1200, 2.0, 6.0, 3);
  const Graph g = Graph::build(graph::EdgeList(el));
  Engine eng(g);
  for (vid_t src : {0u, 5u, 600u}) {
    const BcResult r = betweenness_centrality(eng, src);
    expect_bc_match(el, r, src, 1e-7);
  }
}

TEST(Bc, RoadNetworkMatchesReference) {
  const auto el = graph::road_lattice(12, 12, 0.1, 3);
  const Graph g = Graph::build(graph::EdgeList(el));
  Engine eng(g);
  const BcResult r = betweenness_centrality(eng, 0);
  expect_bc_match(el, r, 0, 1e-7);
}

TEST(Bc, PayloadBitIdenticalAcrossThreadCounts) {
  // The backward pull has one writer per vertex and sums in CSR order, and
  // σ sums whole numbers, so the whole payload repeats byte for byte at
  // every thread count.  (The pushed backward pass added doubles with
  // atomic_add in schedule order and differed on every multi-thread run.)
  const Graph g = Graph::build(graph::rmat(14, 16, 7));
  const auto run = [&](int threads) {
    ThreadCountGuard guard(threads);
    Engine eng(g);
    return betweenness_centrality(eng, 3);
  };
  const BcResult want = run(1);
  const auto same_bytes = [](const auto& a, const auto& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0;
  };
  for (const int threads : {1, 2, 4}) {
    for (int rep = 0; rep < 3; ++rep) {
      SCOPED_TRACE(::testing::Message() << threads << " threads, run " << rep);
      const BcResult got = run(threads);
      EXPECT_TRUE(same_bytes(got.dependency, want.dependency));
      EXPECT_TRUE(same_bytes(got.sigma, want.sigma));
      EXPECT_TRUE(same_bytes(got.level, want.level));
      EXPECT_EQ(got.rounds, want.rounds);
    }
  }
}

}  // namespace
}  // namespace grind::algorithms
