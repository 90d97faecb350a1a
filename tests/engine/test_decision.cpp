// Algorithm 2's decision procedure: thresholds, forcing, atomics policy.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "engine/edge_map.hpp"
#include "engine/engine.hpp"
#include "graph/generators.hpp"
#include "sys/parallel.hpp"

namespace grind::engine {
namespace {

TEST(Decision, PaperThresholds) {
  const eid_t m = 2000;
  Options opts;  // 5% sparse, 50% dense
  EXPECT_EQ(decide_traversal(0, m, opts), TraversalKind::kSparseCsr);
  EXPECT_EQ(decide_traversal(100, m, opts), TraversalKind::kSparseCsr);
  EXPECT_EQ(decide_traversal(101, m, opts), TraversalKind::kBackwardCsc);
  EXPECT_EQ(decide_traversal(1000, m, opts), TraversalKind::kBackwardCsc);
  EXPECT_EQ(decide_traversal(1001, m, opts), TraversalKind::kDenseCoo);
  EXPECT_EQ(decide_traversal(3000, m, opts), TraversalKind::kDenseCoo);
}

TEST(Decision, ForcedLayoutsOverrideNonSparseChoice) {
  const eid_t m = 2000;
  Options opts;
  opts.layout = Layout::kDenseCoo;
  EXPECT_EQ(decide_traversal(500, m, opts), TraversalKind::kDenseCoo);
  opts.layout = Layout::kBackwardCsc;
  EXPECT_EQ(decide_traversal(1900, m, opts), TraversalKind::kBackwardCsc);
  opts.layout = Layout::kPartitionedCsr;
  EXPECT_EQ(decide_traversal(1900, m, opts), TraversalKind::kPartitionedCsr);
}

TEST(Decision, SparseFrontiersAlwaysUseCsr) {
  // §III-A1: every configuration keeps the unpartitioned CSR for sparse
  // frontiers.
  const eid_t m = 2000;
  for (Layout l : {Layout::kBackwardCsc, Layout::kDenseCoo,
                   Layout::kPartitionedCsr}) {
    Options opts;
    opts.layout = l;
    EXPECT_EQ(decide_traversal(50, m, opts), TraversalKind::kSparseCsr);
  }
}

TEST(Decision, SparseForcingAlwaysSparse) {
  Options opts;
  opts.layout = Layout::kSparseCsr;
  EXPECT_EQ(decide_traversal(1999, 2000, opts), TraversalKind::kSparseCsr);
}

TEST(Decision, CustomThresholds) {
  Options opts;
  opts.sparse_fraction = 0.0;  // never sparse (weight 0 handled upstream)
  opts.dense_fraction = 0.0;   // always dense
  EXPECT_EQ(decide_traversal(1, 1000, opts), TraversalKind::kDenseCoo);
}

TEST(Decision, FilterlessOperatorsPushTheWholeMediumBand) {
  const eid_t m = 2000;  // sparse cut 100, dense cut 1000
  Options opts;
  constexpr bool kFilterless = false;
  for (eid_t w : {eid_t{0}, eid_t{100}, eid_t{101}, eid_t{550}, eid_t{1000}})
    EXPECT_EQ(decide_traversal(w, m, opts, kFilterless),
              TraversalKind::kSparseCsr)
        << "w=" << w;
  // The dense band is unchanged, for both orientations.
  EXPECT_EQ(decide_traversal(1001, m, opts, kFilterless),
            TraversalKind::kDenseCoo);
  opts.orientation = Orientation::kVertex;
  EXPECT_EQ(decide_traversal(1001, m, opts, kFilterless),
            TraversalKind::kBackwardCsc);
  EXPECT_EQ(decide_traversal(550, m, opts, kFilterless),
            TraversalKind::kSparseCsr);
  // The default call and a filtering operator keep the backward gather.
  EXPECT_EQ(decide_traversal(101, m, opts), TraversalKind::kBackwardCsc);
  EXPECT_EQ(decide_traversal(1000, m, opts, true),
            TraversalKind::kBackwardCsc);
  // Forced layouts still force the non-sparse choice.
  for (const auto& [layout, kind] :
       {std::pair{Layout::kBackwardCsc, TraversalKind::kBackwardCsc},
        std::pair{Layout::kDenseCoo, TraversalKind::kDenseCoo},
        std::pair{Layout::kPartitionedCsr, TraversalKind::kPartitionedCsr}}) {
    Options forced;
    forced.layout = layout;
    EXPECT_EQ(decide_traversal(550, m, forced, kFilterless), kind)
        << to_string(layout);
  }
}

/// Accumulate-only operators that differ only in how they declare their
/// (absent) filter: deriving from CondTrue, or an own cond returning true.
struct CountInCondTrue : CondTrue {
  bool update(vid_t, vid_t, weight_t) { return false; }
  bool update_atomic(vid_t, vid_t, weight_t) { return false; }
};
struct CountInOwnCond {
  bool update(vid_t, vid_t, weight_t) { return false; }
  bool update_atomic(vid_t, vid_t, weight_t) { return false; }
  [[nodiscard]] bool cond(vid_t) const { return true; }
};
static_assert(FilterlessOperator<CountInCondTrue>);
static_assert(!FilterlessOperator<CountInOwnCond>);

TEST(Decision, EdgeMapDerivesTheFilterFromTheOperatorType) {
  const auto g = graph::Graph::build(graph::rmat(10, 8, 3));
  const vid_t n = g.num_vertices();
  // A medium frontier (between |E|/20 and |E|/2): vertices in id order
  // until the weight passes |E|/4.
  std::vector<vid_t> verts;
  eid_t w = 0;
  for (vid_t v = 0; v < n && w <= g.num_edges() / 4; ++v) {
    verts.push_back(v);
    w += 1 + g.out_degree(v);
  }
  Frontier f = Frontier::from_vertices(n, verts, &g.csr());
  ASSERT_EQ(classify_density(f.traversal_weight(), g.num_edges()),
            Density::kMedium);

  Engine eng(g);
  eng.edge_map(f, CountInCondTrue{});
  EXPECT_EQ(eng.stats().calls_for(TraversalKind::kSparseCsr), 1u);
  eng.edge_map(f, CountInOwnCond{});
  EXPECT_EQ(eng.stats().calls_for(TraversalKind::kBackwardCsc), 1u);
}

TEST(Decision, AtomicsAutoFollowsPartitionVsThreadCount) {
  graph::BuildOptions b;
  b.num_partitions = 4;
  const auto few = graph::Graph::build(graph::rmat(9, 6, 3), b);
  b.num_partitions = 512;
  const auto many = graph::Graph::build(graph::rmat(9, 6, 3), b);

  Options opts;  // kAuto
  {
    ThreadCountGuard guard(8);
    EXPECT_TRUE(decide_atomics(few, opts));    // 4 partitions < 8 threads
    EXPECT_FALSE(decide_atomics(many, opts));  // 512 partitions ≥ 8 threads
  }
  opts.atomics = AtomicsMode::kForceOn;
  EXPECT_TRUE(decide_atomics(many, opts));
  opts.atomics = AtomicsMode::kForceOff;
  EXPECT_FALSE(decide_atomics(few, opts));
}

TEST(Decision, ClassifyDensityMatchesThresholds) {
  EXPECT_EQ(classify_density(100, 2000), Density::kSparse);
  EXPECT_EQ(classify_density(101, 2000), Density::kMedium);
  EXPECT_EQ(classify_density(1001, 2000), Density::kDense);
}

TEST(Decision, StatsRecordKernelMix) {
  const auto g = graph::Graph::build(graph::rmat(9, 8, 3));
  Engine eng(g);
  auto op = make_symmetric_op([](vid_t, vid_t, weight_t) { return false; },
                              [](vid_t) { return true; });
  Frontier all = Frontier::all(g.num_vertices(), &g.csr());
  eng.edge_map(all, op);
  // Use a minimum-degree vertex so the single-vertex frontier is sparse.
  vid_t vmin = 0;
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    if (g.out_degree(v) < g.out_degree(vmin)) vmin = v;
  Frontier one = Frontier::single(g.num_vertices(), vmin, &g.csr());
  eng.edge_map(one, op);
  const auto& s = eng.stats();
  EXPECT_EQ(s.total_calls(), 2u);
  EXPECT_EQ(s.calls[static_cast<int>(TraversalKind::kDenseCoo)], 1u);
  EXPECT_EQ(s.calls[static_cast<int>(TraversalKind::kSparseCsr)], 1u);
  EXPECT_FALSE(eng.stats_report().empty());
  eng.reset_stats();
  EXPECT_EQ(eng.stats().total_calls(), 0u);
}

TEST(Decision, ToStringNames) {
  EXPECT_EQ(to_string(TraversalKind::kSparseCsr), "sparse-csr");
  EXPECT_EQ(to_string(TraversalKind::kDenseCoo), "dense-coo");
  EXPECT_EQ(to_string(Layout::kAuto), "auto");
  EXPECT_EQ(to_string(Layout::kPartitionedCsr), "partitioned-csr");
}

}  // namespace
}  // namespace grind::engine
