#include "algorithms/cc.hpp"

#include <gtest/gtest.h>

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

class CcLayouts : public ::testing::TestWithParam<Layout> {};

TEST_P(CcLayouts, LabelsMatchSerialFixpoint) {
  auto el = graph::rmat(9, 4, 77);
  el.symmetrize();
  const auto want = ref::cc_labels(el);
  graph::BuildOptions b;
  b.build_partitioned_csr = true;
  b.num_partitions = 16;
  const Graph g = Graph::build(graph::EdgeList(el), b);
  Options opts;
  opts.layout = GetParam();
  Engine eng(g, opts);
  const CcResult r = connected_components(eng);
  EXPECT_EQ(r.labels, want);
}

INSTANTIATE_TEST_SUITE_P(AllLayouts, CcLayouts,
                         ::testing::Values(Layout::kAuto, Layout::kSparseCsr,
                                           Layout::kBackwardCsc,
                                           Layout::kDenseCoo,
                                           Layout::kPartitionedCsr),
                         [](const auto& info) {
                           return testing_support::layout_test_name(
                               info.param);
                         });

TEST(Cc, AutoLayoutNeverPullsOnARoadLattice) {
  // CC's min-label update has no destination filter: its medium frontiers
  // take the push, and the labels stay the serial fixpoint.
  const auto el = graph::road_lattice(96, 96, 0.05, 3);
  const auto want = ref::cc_labels(el);
  const Graph g = Graph::build(graph::EdgeList(el));
  for (const int threads : {1, 4}) {
    ThreadCountGuard guard(threads);
    Engine eng(g);
    const CcResult r = connected_components(eng);
    EXPECT_EQ(eng.stats().calls_for(engine::TraversalKind::kBackwardCsc), 0u)
        << "threads=" << threads;
    EXPECT_EQ(r.labels, want) << "threads=" << threads;
  }
}

TEST(Cc, DisjointCyclesGetDistinctLabels) {
  graph::EdgeList el;
  // Two directed cycles: {0,1,2} and {3,4}.
  el.add(0, 1);
  el.add(1, 2);
  el.add(2, 0);
  el.add(3, 4);
  el.add(4, 3);
  const Graph g = Graph::build(std::move(el));
  Engine eng(g);
  const CcResult r = connected_components(eng);
  EXPECT_EQ(r.labels[0], 0u);
  EXPECT_EQ(r.labels[1], 0u);
  EXPECT_EQ(r.labels[2], 0u);
  EXPECT_EQ(r.labels[3], 3u);
  EXPECT_EQ(r.labels[4], 3u);
  EXPECT_EQ(r.num_components, 2u);
}

TEST(Cc, SingleComponentOnSymmetrizedConnectedGraph) {
  auto el = graph::road_lattice(20, 20, 0.0, 1);
  const Graph g = Graph::build(std::move(el));
  Engine eng(g);
  const CcResult r = connected_components(eng);
  EXPECT_EQ(r.num_components, 1u);
  for (vid_t v = 0; v < g.num_vertices(); ++v) ASSERT_EQ(r.labels[v], 0u);
}

TEST(Cc, IsolatedVerticesAreOwnComponents) {
  graph::EdgeList el;
  el.add(0, 1);
  el.add(1, 0);
  el.set_num_vertices(5);  // 2, 3, 4 isolated
  const Graph g = Graph::build(std::move(el));
  Engine eng(g);
  const CcResult r = connected_components(eng);
  EXPECT_EQ(r.num_components, 4u);
  EXPECT_EQ(r.labels[2], 2u);
  EXPECT_EQ(r.labels[4], 4u);
}

TEST(Cc, DirectedFixpointMatchesSerialOnAsymmetricGraph) {
  // Label propagation on a *directed* graph: min ancestor id, not SCC.
  const auto el = graph::rmat(9, 4, 5);
  const auto want = ref::cc_labels(el);
  const Graph g = Graph::build(graph::EdgeList(el));
  Engine eng(g);
  const CcResult r = connected_components(eng);
  EXPECT_EQ(r.labels, want);
}

TEST(Cc, DeterministicAcrossRuns) {
  auto el = graph::powerlaw(2000, 2.0, 6.0, 9);
  el.symmetrize();
  const Graph g = Graph::build(graph::EdgeList(el));
  Engine e1(g), e2(g);
  EXPECT_EQ(connected_components(e1).labels, connected_components(e2).labels);
}

}  // namespace
}  // namespace grind::algorithms
