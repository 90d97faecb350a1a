#include "algorithms/bfs.hpp"

#include <gtest/gtest.h>

#include "common/test_names.hpp"

#include <cstring>
#include <tuple>

#include "algorithms/ref/reference.hpp"
#include "engine/engine.hpp"
#include "graph/generators.hpp"
#include "sys/parallel.hpp"

namespace grind::algorithms {
namespace {

using engine::Engine;
using engine::Layout;
using engine::Options;
using graph::BuildOptions;
using graph::Graph;

void expect_levels_match(const graph::EdgeList& el, const BfsResult& got,
                         vid_t source) {
  const auto want = ref::bfs_levels(el, source);
  ASSERT_EQ(got.level.size(), want.size());
  for (vid_t v = 0; v < want.size(); ++v)
    ASSERT_EQ(got.level[v], want[v]) << "v=" << v;
}

void expect_parents_consistent(const graph::EdgeList& el, const BfsResult& r,
                               vid_t source) {
  // parent[v] must be a real in-neighbour of v one level closer.
  const auto csc = graph::Csr::build(el, graph::Adjacency::kIn);
  for (vid_t v = 0; v < el.num_vertices(); ++v) {
    if (v == source || r.parent[v] == kInvalidVertex) continue;
    const vid_t p = r.parent[v];
    EXPECT_EQ(r.level[v], r.level[p] + 1) << "v=" << v;
    const auto in = csc.neighbors(v);
    EXPECT_NE(std::find(in.begin(), in.end(), p), in.end()) << "v=" << v;
  }
}

class BfsLayouts : public ::testing::TestWithParam<Layout> {};

TEST_P(BfsLayouts, LevelsMatchSerialBfsOnRmat) {
  const auto el = graph::rmat(10, 8, 3);
  BuildOptions b;
  b.build_partitioned_csr = true;
  b.num_partitions = 32;
  const Graph g = Graph::build(graph::EdgeList(el), b);
  Options opts;
  opts.layout = GetParam();
  Engine eng(g, opts);
  const BfsResult r = bfs(eng, 0);
  expect_levels_match(el, r, 0);
  expect_parents_consistent(el, r, 0);
}

INSTANTIATE_TEST_SUITE_P(AllLayouts, BfsLayouts,
                         ::testing::Values(Layout::kAuto, Layout::kSparseCsr,
                                           Layout::kBackwardCsc,
                                           Layout::kDenseCoo,
                                           Layout::kPartitionedCsr),
                         [](const auto& info) {
                           return testing_support::layout_test_name(
                               info.param);
                         });

TEST(Bfs, PathGraphHasLinearLevels) {
  const Graph g = Graph::build(graph::path(100));
  Engine eng(g);
  const BfsResult r = bfs(eng, 0);
  for (vid_t v = 0; v < 100; ++v)
    EXPECT_EQ(r.level[v], static_cast<std::int64_t>(v));
  EXPECT_EQ(r.reached, 100u);
  // 99 frontier-advancing rounds plus the final round that discovers the
  // frontier is exhausted.
  EXPECT_EQ(r.rounds, 100);
}

TEST(Bfs, UnreachableVerticesStayAtMinusOne) {
  graph::EdgeList el = graph::path(10);
  el.set_num_vertices(20);  // vertices 10..19 isolated
  const Graph g = Graph::build(std::move(el));
  Engine eng(g);
  const BfsResult r = bfs(eng, 0);
  for (vid_t v = 10; v < 20; ++v) {
    EXPECT_EQ(r.level[v], -1);
    EXPECT_EQ(r.parent[v], kInvalidVertex);
  }
  EXPECT_EQ(r.reached, 10u);
}

TEST(Bfs, SourceIsItsOwnParent) {
  const Graph g = Graph::build(graph::rmat(8, 4, 9));
  Engine eng(g);
  const BfsResult r = bfs(eng, 5);
  EXPECT_EQ(r.parent[5], 5u);
  EXPECT_EQ(r.level[5], 0);
}

TEST(Bfs, RoadNetworkDeepDiameter) {
  const auto el = graph::road_lattice(40, 40, 0.0, 1);
  const Graph g = Graph::build(graph::EdgeList(el));
  Engine eng(g);
  const BfsResult r = bfs(eng, 0);
  expect_levels_match(el, r, 0);
  EXPECT_EQ(r.level[40 * 40 - 1], 78);  // Manhattan distance corner-to-corner
}

TEST(Bfs, MatchesSerialFromMultipleSources) {
  const auto el = graph::powerlaw(3000, 2.0, 8.0, 4);
  const Graph g = Graph::build(graph::EdgeList(el));
  Engine eng(g);
  for (vid_t src : {0u, 17u, 1234u, 2999u}) {
    const BfsResult r = bfs(eng, src);
    expect_levels_match(el, r, src);
  }
}

TEST(Bfs, UsesMultipleKernelKindsOnRmat) {
  // On a scale-free graph the frontier sweeps sparse → dense → sparse, so
  // the auto engine should exercise at least two kernels.
  const Graph g = Graph::build(graph::rmat(11, 8, 3));
  Engine eng(g);
  bfs(eng, 0);
  const auto& s = eng.stats();
  int kinds = 0;
  for (int k = 0; k < 4; ++k) kinds += s.calls[k] > 0 ? 1 : 0;
  EXPECT_GE(kinds, 2);
}

TEST(Bfs, LevelBitIdenticalAcrossThreadCounts) {
  // The claim's winner records the level, so whichever source wins, the
  // level array repeats byte for byte at every thread count.
  const Graph g = Graph::build(graph::rmat(14, 16, 7));
  const auto run = [&](int threads) {
    ThreadCountGuard guard(threads);
    Engine eng(g);
    return bfs(eng, 3);
  };
  const BfsResult want = run(1);
  for (const int threads : {1, 2, 4}) {
    for (int rep = 0; rep < 3; ++rep) {
      SCOPED_TRACE(::testing::Message() << threads << " threads, run " << rep);
      const BfsResult got = run(threads);
      ASSERT_EQ(got.level.size(), want.level.size());
      EXPECT_EQ(std::memcmp(got.level.data(), want.level.data(),
                            want.level.size() * sizeof(want.level[0])),
                0);
      EXPECT_EQ(got.reached, want.reached);
      EXPECT_EQ(got.rounds, want.rounds);
    }
  }
}

}  // namespace
}  // namespace grind::algorithms
