// Transpose edge map: data flows d→s; results must equal the serial oracle
// over reversed edges across every kernel choice and forced layout, at 1
// and 4 threads.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "engine/edge_map.hpp"
#include "engine/engine.hpp"
#include "graph/generators.hpp"
#include "sys/atomics.hpp"
#include "sys/cancel.hpp"
#include "sys/parallel.hpp"

namespace grind::engine {
namespace {

using graph::BuildOptions;
using graph::Graph;

/// Claim-once accumulator: acc[d] += s+1, d enters the frontier once.
struct SumOp {
  std::uint64_t* acc;
  unsigned char* claimed;

  bool update(vid_t s, vid_t d, weight_t) {
    acc[d] += static_cast<std::uint64_t>(s) + 1;
    if (claimed[d] == 0) {
      claimed[d] = 1;
      return true;
    }
    return false;
  }
  bool update_atomic(vid_t s, vid_t d, weight_t) {
    atomic_add(acc[d], static_cast<std::uint64_t>(s) + 1);
    return atomic_claim(claimed[d]);
  }
  [[nodiscard]] bool cond(vid_t) const { return true; }
};

/// Oracle: for every edge (v, u) with u active, v receives u+1.
void transpose_oracle(const graph::EdgeList& el,
                      const std::vector<bool>& active,
                      std::vector<std::uint64_t>& acc,
                      std::vector<bool>& next) {
  acc.assign(el.num_vertices(), 0);
  next.assign(el.num_vertices(), false);
  for (const Edge& e : el.edges()) {
    if (!active[e.dst]) continue;
    acc[e.src] += e.dst + 1;
    next[e.src] = true;
  }
}

/// The active set as a frontier: a dense bitmap or a sparse vertex list.
Frontier make_frontier(const Graph& g, const std::vector<bool>& active,
                       bool dense) {
  const vid_t n = g.num_vertices();
  if (dense) {
    Bitmap bits(n);
    for (vid_t v = 0; v < n; ++v)
      if (active[v]) bits.set(v);
    Frontier f = Frontier::from_bitmap(std::move(bits));
    f.recount(&g.csr());
    return f;
  }
  std::vector<vid_t> verts;
  for (vid_t v = 0; v < n; ++v)
    if (active[v]) verts.push_back(v);
  return Frontier::from_vertices(n, std::move(verts), &g.csr());
}

/// Run one transposed edge_map over `active` at 1 and 4 threads, each on a
/// fresh workspace, and compare the accumulators and the next frontier with
/// the oracle.  Returns the statistics of the 4-thread run.
TraversalStats expect_oracle(const graph::EdgeList& el, const Graph& g,
                             const std::vector<bool>& active, bool dense,
                             const Options& opts = {}) {
  const vid_t n = g.num_vertices();
  std::vector<std::uint64_t> want_acc;
  std::vector<bool> want_next;
  transpose_oracle(el, active, want_acc, want_next);

  TraversalStats stats;
  for (const int threads : {1, 4}) {
    ThreadCountGuard guard(threads);
    std::vector<std::uint64_t> acc(n, 0);
    std::vector<unsigned char> claimed(n, 0);
    Frontier f = make_frontier(g, active, dense);
    TraversalWorkspace ws;
    stats = {};
    Frontier next = edge_map<Direction::kTranspose>(
        g, f, SumOp{acc.data(), claimed.data()}, ws, opts, &stats);
    EXPECT_EQ(acc, want_acc) << "threads=" << threads;
    for (vid_t v = 0; v < n; ++v)
      EXPECT_EQ(next.contains(v), want_next[v])
          << "threads=" << threads << " v=" << v;
  }
  return stats;
}

TEST(TransposeEdgeMap, DenseMatchesOracle) {
  const auto el = graph::rmat(9, 8, 7);
  const Graph g = Graph::build(graph::EdgeList(el));
  expect_oracle(el, g, std::vector<bool>(g.num_vertices(), true),
                /*dense=*/true);
}

TEST(TransposeEdgeMap, SparseMatchesOracle) {
  const auto el = graph::rmat(9, 8, 11);
  const Graph g = Graph::build(graph::EdgeList(el));
  std::vector<bool> active(g.num_vertices(), false);
  active[4] = active[5] = true;
  expect_oracle(el, g, active, /*dense=*/false);
}

TEST(TransposeEdgeMap, MediumDensityBackwardGatherMatchesOracle) {
  const auto el = graph::rmat(9, 8, 13);
  const Graph g = Graph::build(graph::EdgeList(el));
  std::vector<bool> active(g.num_vertices(), false);
  for (vid_t v = 0; v < g.num_vertices(); v += 4) active[v] = true;

  Options opts;
  opts.layout = Layout::kBackwardCsc;  // forces the gather kernel
  opts.sparse_fraction = 0.0;
  const TraversalStats stats =
      expect_oracle(el, g, active, /*dense=*/false, opts);
  EXPECT_EQ(stats.calls_for(TraversalKind::kBackwardCsc), 1u);
}

TEST(TransposeEdgeMap, ForcedCooDegradesToGatherAndMatches) {
  const auto el = graph::rmat(9, 8, 17);
  const Graph g = Graph::build(graph::EdgeList(el));

  Options opts;
  opts.layout = Layout::kDenseCoo;
  const TraversalStats stats = expect_oracle(
      el, g, std::vector<bool>(g.num_vertices(), true), /*dense=*/true, opts);
  // The COO is partitioned by original destination — the reader side under
  // reversed flow — so the transpose takes the single-writer gather.
  EXPECT_EQ(stats.calls_for(TraversalKind::kDenseCoo), 0u);
  EXPECT_EQ(stats.calls_for(TraversalKind::kBackwardCsc), 1u);
  EXPECT_EQ(stats.atomic_rounds, 0u);
}

TEST(TransposeEdgeMap, EmptyFrontierShortCircuits) {
  const Graph g = Graph::build(graph::rmat(8, 4, 5));
  std::vector<std::uint64_t> acc(g.num_vertices(), 0);
  std::vector<unsigned char> claimed(g.num_vertices(), 0);
  Frontier f = Frontier::empty(g.num_vertices());
  Engine eng(g);
  Frontier next =
      eng.edge_map_transpose(f, SumOp{acc.data(), claimed.data()});
  EXPECT_TRUE(next.empty());
}

/// Fires the query's cancel token on the first edge it applies.
struct CancelOnUpdateOp {
  sys::CancelToken* token;

  bool update(vid_t, vid_t, weight_t) {
    token->request_cancel();
    return true;
  }
  bool update_atomic(vid_t, vid_t, weight_t) {
    token->request_cancel();
    return true;
  }
  [[nodiscard]] bool cond(vid_t) const { return true; }
};

TEST(TransposeEdgeMap, CancelInsideSweepThrowsAndCountsNoSweep) {
  const Graph g = Graph::build(graph::rmat(9, 8, 19));
  const vid_t n = g.num_vertices();
  std::vector<bool> sparse(n, false);
  sparse[4] = sparse[5] = true;
  for (const int threads : {1, 4}) {
    ThreadCountGuard guard(threads);
    // Dense: the gather drains its remaining chunks; sparse: the push runs
    // out.  Either way the post-sweep poll must discard the result.
    for (const bool dense : {true, false}) {
      auto token = std::make_shared<sys::CancelToken>();
      Options opts;
      opts.cancel = token;
      Engine eng(g, opts);
      Frontier f = make_frontier(
          g, dense ? std::vector<bool>(n, true) : sparse, dense);
      EXPECT_THROW(eng.edge_map_transpose(f, CancelOnUpdateOp{token.get()}),
                   sys::Cancelled)
          << "threads=" << threads << " dense=" << dense;
      EXPECT_EQ(eng.sweeps_done(), 0);
    }
  }
}

// ---------------------------------------------------------------------------
// Every forced layout: the decision folds the transpose onto the sparse push
// or the single-writer gather, and both match the oracle at every density.

struct LayoutCase {
  Layout layout;
  const char* name;
};

class TransposeOracle : public ::testing::TestWithParam<LayoutCase> {};

TEST_P(TransposeOracle, MatchesAtEveryFrontierDensity) {
  const auto el = graph::rmat(10, 8, 23);
  BuildOptions b;
  b.num_partitions = 16;
  b.boundary_align = 8;  // gather sub-chunks share bitmap words
  b.build_partitioned_csr = true;
  const Graph g = Graph::build(graph::EdgeList(el), b);
  const vid_t n = g.num_vertices();

  Options opts;
  opts.layout = GetParam().layout;
  std::vector<bool> all(n, true), quarter(n, false), pair(n, false);
  for (vid_t v = 0; v < n; v += 4) quarter[v] = true;
  pair[4] = pair[5] = true;
  for (const auto* active : {&all, &quarter, &pair}) {
    for (const bool dense : {true, false}) {
      const TraversalStats stats = expect_oracle(el, g, *active, dense, opts);
      EXPECT_EQ(stats.calls_for(TraversalKind::kSparseCsr) +
                    stats.calls_for(TraversalKind::kBackwardCsc),
                1u);
      EXPECT_EQ(stats.atomic_rounds,
                stats.calls_for(TraversalKind::kSparseCsr));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ForcedLayouts, TransposeOracle,
    ::testing::Values(LayoutCase{Layout::kAuto, "auto"},
                      LayoutCase{Layout::kSparseCsr, "sparse"},
                      LayoutCase{Layout::kBackwardCsc, "backward"},
                      LayoutCase{Layout::kDenseCoo, "dense_coo"},
                      LayoutCase{Layout::kPartitionedCsr, "partitioned_csr"}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace grind::engine
