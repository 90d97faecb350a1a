// Cross-layout agreement: the four traversal kernels must compute identical
// results (per-destination accumulations, next frontiers) for the same
// operator, regardless of partition count, atomics mode or frontier
// representation.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <utility>
#include <vector>

#include "engine/edge_map.hpp"
#include "engine/engine.hpp"
#include "graph/generators.hpp"
#include "sys/atomics.hpp"
#include "sys/parallel.hpp"

namespace grind::engine {
namespace {

using graph::BuildOptions;
using graph::Graph;

/// Integer-accumulating operator (exact, order-independent): acc[d] += s+1.
/// Destinations whose accumulator crosses a threshold enter the frontier
/// (claim-once semantics via flags).
struct SumOp {
  std::uint64_t* acc;
  unsigned char* claimed;

  bool update(vid_t s, vid_t d, weight_t) {
    acc[d] += s + 1;
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

/// Serial oracle over the raw edge list.
void oracle(const graph::EdgeList& el, const std::vector<bool>& active,
            std::vector<std::uint64_t>& acc, std::vector<bool>& next) {
  acc.assign(el.num_vertices(), 0);
  next.assign(el.num_vertices(), false);
  for (const Edge& e : el.edges()) {
    if (!active[e.src]) continue;
    acc[e.dst] += e.src + 1;
    next[e.dst] = true;
  }
}

struct KernelCase {
  Layout layout;
  AtomicsMode atomics;
  part_t partitions;
  const char* name;
};

class KernelAgreement : public ::testing::TestWithParam<KernelCase> {};

TEST_P(KernelAgreement, MatchesSerialOracleOnDenseFrontier) {
  const KernelCase c = GetParam();
  const auto el = graph::rmat(10, 8, 321);
  BuildOptions b;
  b.num_partitions = c.partitions;
  b.build_partitioned_csr = true;
  const Graph g = Graph::build(graph::EdgeList(el), b);
  const vid_t n = g.num_vertices();

  std::vector<bool> active(n, true);
  std::vector<std::uint64_t> want_acc;
  std::vector<bool> want_next;
  oracle(el, active, want_acc, want_next);

  Options opts;
  opts.layout = c.layout;
  opts.atomics = c.atomics;
  Engine eng(g, opts);

  std::vector<std::uint64_t> acc(n, 0);
  std::vector<unsigned char> claimed(n, 0);
  Frontier all = Frontier::all(n, &g.csr());
  Frontier next = eng.edge_map(all, SumOp{acc.data(), claimed.data()});

  EXPECT_EQ(acc, want_acc) << c.name;
  for (vid_t v = 0; v < n; ++v)
    ASSERT_EQ(next.contains(v), want_next[v]) << c.name << " v=" << v;
}

TEST_P(KernelAgreement, MatchesSerialOracleOnPartialFrontier) {
  const KernelCase c = GetParam();
  const auto el = graph::rmat(9, 8, 99);
  BuildOptions b;
  b.num_partitions = c.partitions;
  b.build_partitioned_csr = true;
  const Graph g = Graph::build(graph::EdgeList(el), b);
  const vid_t n = g.num_vertices();

  // Every third vertex active: a medium-dense frontier.
  std::vector<bool> active(n, false);
  std::vector<vid_t> verts;
  for (vid_t v = 0; v < n; v += 3) {
    active[v] = true;
    verts.push_back(v);
  }
  std::vector<std::uint64_t> want_acc;
  std::vector<bool> want_next;
  oracle(el, active, want_acc, want_next);

  Options opts;
  opts.layout = c.layout;
  opts.atomics = c.atomics;
  opts.sparse_fraction = 0.0;  // force the non-sparse kernel under test
  Engine eng(g, opts);

  std::vector<std::uint64_t> acc(n, 0);
  std::vector<unsigned char> claimed(n, 0);
  Frontier f = Frontier::from_vertices(n, verts, &g.csr());
  Frontier next = eng.edge_map(f, SumOp{acc.data(), claimed.data()});

  EXPECT_EQ(acc, want_acc) << c.name;
  for (vid_t v = 0; v < n; ++v)
    ASSERT_EQ(next.contains(v), want_next[v]) << c.name << " v=" << v;
}

INSTANTIATE_TEST_SUITE_P(
    LayoutsPartitionsAtomics, KernelAgreement,
    ::testing::Values(
        KernelCase{Layout::kBackwardCsc, AtomicsMode::kAuto, 4, "csc_p4"},
        KernelCase{Layout::kBackwardCsc, AtomicsMode::kAuto, 64, "csc_p64"},
        KernelCase{Layout::kDenseCoo, AtomicsMode::kForceOff, 4,
                   "coo_na_p4"},
        KernelCase{Layout::kDenseCoo, AtomicsMode::kForceOff, 64,
                   "coo_na_p64"},
        KernelCase{Layout::kDenseCoo, AtomicsMode::kForceOn, 64, "coo_a_p64"},
        KernelCase{Layout::kPartitionedCsr, AtomicsMode::kForceOff, 16,
                   "pcsr_na_p16"},
        KernelCase{Layout::kPartitionedCsr, AtomicsMode::kForceOn, 16,
                   "pcsr_a_p16"},
        KernelCase{Layout::kAuto, AtomicsMode::kAuto, 32, "auto_p32"}),
    [](const auto& info) { return info.param.name; });

TEST(SparseKernel, MatchesOracleOnTinyFrontier) {
  const auto el = graph::rmat(10, 8, 5);
  const Graph g = Graph::build(graph::EdgeList(el));
  const vid_t n = g.num_vertices();

  std::vector<bool> active(n, false);
  std::vector<vid_t> verts = {1, 2, 3};
  for (vid_t v : verts) active[v] = true;
  std::vector<std::uint64_t> want_acc;
  std::vector<bool> want_next;
  oracle(el, active, want_acc, want_next);

  Engine eng(g);
  std::vector<std::uint64_t> acc(n, 0);
  std::vector<unsigned char> claimed(n, 0);
  Frontier f = Frontier::from_vertices(n, verts, &g.csr());
  Frontier next = eng.edge_map(f, SumOp{acc.data(), claimed.data()});

  EXPECT_EQ(acc, want_acc);
  for (vid_t v = 0; v < n; ++v) ASSERT_EQ(next.contains(v), want_next[v]);
  // The sparse kernel must actually have been chosen.
  EXPECT_EQ(eng.stats().calls[static_cast<int>(TraversalKind::kSparseCsr)],
            1u);
}

TEST(Kernels, EmptyFrontierShortCircuits) {
  const Graph g = Graph::build(graph::rmat(8, 4, 5));
  Engine eng(g);
  std::vector<std::uint64_t> acc(g.num_vertices(), 0);
  std::vector<unsigned char> claimed(g.num_vertices(), 0);
  Frontier f = Frontier::empty(g.num_vertices());
  Frontier next = eng.edge_map(f, SumOp{acc.data(), claimed.data()});
  EXPECT_TRUE(next.empty());
  EXPECT_EQ(eng.stats().total_calls(), 0u);
}

TEST(Kernels, CondFiltersDestinations) {
  // cond(d) = d is even: odd destinations must receive no updates.
  const auto el = graph::rmat(9, 6, 5);
  const Graph g = Graph::build(graph::EdgeList(el));
  const vid_t n = g.num_vertices();
  std::vector<std::uint64_t> acc(n, 0);

  auto op = make_symmetric_op(
      [&](vid_t s, vid_t d, weight_t) {
        atomic_add(acc[d], static_cast<std::uint64_t>(s) + 1);
        return false;
      },
      [](vid_t d) { return d % 2 == 0; });

  for (Layout layout : {Layout::kBackwardCsc, Layout::kDenseCoo}) {
    std::fill(acc.begin(), acc.end(), 0);
    Options opts;
    opts.layout = layout;
    Engine eng(g, opts);
    Frontier all = Frontier::all(n, &g.csr());
    eng.edge_map(all, op);
    for (vid_t v = 1; v < n; v += 2) ASSERT_EQ(acc[v], 0u);
    std::uint64_t total = 0;
    for (auto a : acc) total += a;
    EXPECT_GT(total, 0u);
  }
}

TEST(Kernels, BackwardCscEarlyExitClaimsOnce) {
  // BFS-like: cond false after first update → each destination updated once
  // even with many active in-neighbours.
  const auto el = graph::complete(64);
  const Graph g = Graph::build(graph::EdgeList(el));
  const vid_t n = g.num_vertices();
  std::vector<vid_t> parent(n, kInvalidVertex);
  parent[0] = 0;

  auto op = make_edge_op(
      [&](vid_t s, vid_t d, weight_t) {
        if (parent[d] == kInvalidVertex) {
          parent[d] = s;
          return true;
        }
        return false;
      },
      [&](vid_t s, vid_t d, weight_t) {
        return atomic_cas(parent[d], kInvalidVertex, s);
      },
      [&](vid_t d) { return parent[d] == kInvalidVertex; });

  Options opts;
  opts.layout = Layout::kBackwardCsc;
  opts.sparse_fraction = 0.0;
  Engine eng(g, opts);
  Frontier all = Frontier::all(n, &g.csr());
  Frontier next = eng.edge_map(all, op);
  // All 63 others claimed exactly once.
  EXPECT_EQ(next.num_active(), n - 1);
  for (vid_t v = 1; v < n; ++v) ASSERT_NE(parent[v], kInvalidVertex);
}

TEST(Kernels, ResultsIdenticalAcrossThreadCounts) {
  const auto el = graph::rmat(9, 8, 41);
  const Graph g = Graph::build(graph::EdgeList(el));
  const vid_t n = g.num_vertices();

  auto run = [&](int threads) {
    ThreadCountGuard guard(threads);
    std::vector<std::uint64_t> acc(n, 0);
    std::vector<unsigned char> claimed(n, 0);
    Engine eng(g);
    Frontier all = Frontier::all(n, &g.csr());
    eng.edge_map(all, SumOp{acc.data(), claimed.data()});
    return acc;
  };
  EXPECT_EQ(run(1), run(num_threads()));
}

TEST(Kernels, SparsePushStatisticsEqualRecountInBothDirections) {
  // The push sums |F| and Σ deg (in the push direction) in its per-thread
  // slots as it claims destinations; the totals must equal a recount of
  // the output list, at one thread and at several.
  for (const auto& [el, name] :
       {std::pair{graph::road_lattice(64, 64, 0.05, 3), "lattice"},
        std::pair{graph::rmat(11, 8, 17), "rmat"}}) {
    const Graph g = Graph::build(graph::EdgeList(el));
    const vid_t n = g.num_vertices();
    std::vector<vid_t> verts;
    for (vid_t v = 0; v < n; v += 7) verts.push_back(v);
    for (const int threads : {1, 4}) {
      ThreadCountGuard guard(threads);
      TraversalWorkspace ws;
      auto check = [&]<Direction D>() {
        std::vector<std::uint64_t> acc(n, 0);
        std::vector<unsigned char> claimed(n, 0);
        SumOp op{acc.data(), claimed.data()};
        Frontier f = Frontier::from_vertices(n, verts, &push_index<D>(g));
        Frontier out = traverse_csr_sparse<D>(g, f, op, nullptr, ws);
        const vid_t active = out.num_active();
        const eid_t degree = out.active_out_degree();
        EXPECT_GT(active, 0u);
        out.recount(&push_index<D>(g));
        EXPECT_EQ(active, out.num_active())
            << name << " threads=" << threads;
        EXPECT_EQ(degree, out.active_out_degree())
            << name << " threads=" << threads;
        out.into_workspace(ws);
      };
      check.template operator()<Direction::kForward>();
      check.template operator()<Direction::kTranspose>();
    }
  }
}

/// Activates every destination it reaches, from every edge: each next-
/// frontier bit is stored by whichever task gets there, the pattern that
/// loses bits when concurrent tasks share a bitmap word non-atomically.
struct ActivateAllOp {
  using scatter_value_t = int;
  bool update(vid_t, vid_t, weight_t) { return true; }
  bool update_atomic(vid_t, vid_t, weight_t) { return true; }
  [[nodiscard]] int scatter(vid_t, weight_t) const { return 0; }
  bool gather(vid_t, int) { return true; }
  [[nodiscard]] bool cond(vid_t) const { return true; }
};

TEST(Kernels, PartitionParallelNextFrontierExactAtEveryBoundaryAlign) {
  const auto el = graph::rmat(11, 8, 99);
  std::vector<bool> active(el.num_vertices(), true);
  std::vector<std::uint64_t> unused;
  std::vector<bool> want;
  oracle(el, active, unused, want);

  ThreadCountGuard guard(4);
  for (const vid_t align : {1u, 8u, 64u}) {
    BuildOptions b;
    b.num_partitions = 64;
    b.boundary_align = align;
    b.build_partitioned_csr = true;
    b.build_pcpm_bins = true;
    const Graph g = Graph::build(graph::EdgeList(el), b);
    const vid_t n = g.num_vertices();
    EXPECT_EQ(g.partitioning_edges().word_aligned(), align == 64)
        << "align=" << align;

    for (const auto& [layout, kind] :
         {std::pair{Layout::kBackwardCsc, TraversalKind::kBackwardCsc},
          std::pair{Layout::kDenseCoo, TraversalKind::kDenseCoo},
          std::pair{Layout::kPartitionedCsr, TraversalKind::kPartitionedCsr},
          std::pair{Layout::kPcpm, TraversalKind::kPcpm}}) {
      Options opts;
      opts.layout = layout;
      opts.atomics = AtomicsMode::kForceOff;  // the single-writer kernels
      opts.sparse_fraction = 0.0;
      Engine eng(g, opts);
      for (int rep = 0; rep < 4; ++rep) {  // a lost store is a race: retry
        Frontier all = Frontier::all(n, &g.csr());
        Frontier next = eng.edge_map(all, ActivateAllOp{});
        for (vid_t v = 0; v < n; ++v)
          ASSERT_EQ(next.contains(v), want[v])
              << "align=" << align << " kind=" << to_string(kind)
              << " v=" << v;
        eng.recycle(next);
      }
      EXPECT_EQ(eng.stats().calls_for(kind), 4u) << to_string(kind);
    }
  }
}

}  // namespace
}  // namespace grind::engine
