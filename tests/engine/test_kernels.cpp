// Cross-layout agreement: the four traversal kernels must compute identical
// results (per-destination accumulations, next frontiers) for the same
// operator, regardless of partition count, atomics mode or frontier
// representation.
#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "algorithms/belief_propagation.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/pagerank_delta.hpp"
#include "algorithms/spmv.hpp"
#include "engine/edge_map.hpp"
#include "engine/engine.hpp"
#include "graph/generators.hpp"
#include "graph/reorder.hpp"
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

/// Records, per source, how many edges the push read from it and which
/// thread read them; activates nothing.
struct SliceProbeOp {
  std::uint64_t* pushes;
  int* owner;

  bool update(vid_t s, vid_t d, weight_t w) { return update_atomic(s, d, w); }
  bool update_atomic(vid_t s, vid_t, weight_t) {
    atomic_add(pushes[s], std::uint64_t{1});
    std::atomic_ref<int>(owner[s]).store(omp_get_thread_num(),
                                         std::memory_order_relaxed);
    return false;
  }
  [[nodiscard]] bool cond(vid_t) const { return true; }
};

/// A bidirectional star around vertex 0 plus a path over the leaves: the
/// hub holds most of the push weight in either direction.
graph::EdgeList hub_graph(vid_t n) {
  graph::EdgeList el;
  el.set_num_vertices(n);
  for (vid_t v = 1; v < n; ++v) {
    el.add(0, v);
    el.add(v, 0);
    if (v + 1 < n) el.add(v, v + 1);
  }
  return el;
}

TEST(Kernels, SparsePushSlicesCoverTheFrontierOnce) {
  // Each thread owns one contiguous slice of the frontier list: every
  // frontier vertex's edges are read exactly once, by one thread, the
  // owning thread never decreases along the list, and the edge count is
  // exact — whatever the frontier's size and skew.
  const Graph lattice = Graph::build(graph::road_lattice(32, 32, 0.05, 5));
  const Graph hub = Graph::build(hub_graph(600));
  struct Case {
    const Graph* g;
    std::vector<vid_t> verts;
    const char* name;
  };
  std::vector<vid_t> every5th;
  for (vid_t v = 0; v < lattice.num_vertices(); v += 5) every5th.push_back(v);
  std::vector<vid_t> hub_and_leaves{0};
  for (vid_t v = 1; v < 40; ++v) hub_and_leaves.push_back(v * 7);
  const std::vector<Case> cases{
      {&lattice, every5th, "lattice every 5th"},
      {&lattice, {17, 300}, "|F| < threads"},
      {&hub, hub_and_leaves, "hub"},
      {&hub, {}, "empty"}};

  for (const Case& c : cases) {
    const Graph& g = *c.g;
    const vid_t n = g.num_vertices();
    for (const int threads : {1, 2, 4}) {
      ThreadCountGuard guard(threads);
      TraversalWorkspace ws;
      auto check = [&]<Direction D>() {
        const graph::Csr& adj = push_index<D>(g);
        std::vector<std::uint64_t> pushes(n, 0);
        std::vector<int> owner(n, -1);
        SliceProbeOp op{pushes.data(), owner.data()};
        Frontier f = Frontier::from_vertices(n, c.verts, &adj);
        eid_t edges = 0;
        Frontier out = traverse_csr_sparse<D>(g, f, op, &edges, ws);
        const std::string where = std::string(c.name) + " threads=" +
                                  std::to_string(threads) + " transpose=" +
                                  std::to_string(D == Direction::kTranspose);
        EXPECT_TRUE(out.empty()) << where;
        eid_t want_edges = 0;
        int last_owner = 0;
        for (const vid_t v : c.verts) {
          want_edges += adj.degree(v);
          ASSERT_EQ(pushes[v], adj.degree(v)) << where << " v=" << v;
          if (adj.degree(v) == 0) continue;
          ASSERT_GE(owner[v], last_owner) << where << " v=" << v;
          ASSERT_LT(owner[v], threads) << where << " v=" << v;
          last_owner = owner[v];
        }
        EXPECT_EQ(edges, want_edges) << where;
        std::uint64_t total = 0;
        for (const std::uint64_t p : pushes) total += p;
        EXPECT_EQ(total, want_edges) << where;
        out.into_workspace(ws);
      };
      check.template operator()<Direction::kForward>();
      check.template operator()<Direction::kTranspose>();
    }
  }
}

/// Claims each destination once, like SumOp, and records the claiming
/// thread.
struct ClaimProbeOp {
  unsigned char* claimed;
  int* claimer;

  bool update(vid_t s, vid_t d, weight_t w) { return update_atomic(s, d, w); }
  bool update_atomic(vid_t, vid_t d, weight_t) {
    if (!atomic_claim(claimed[d])) return false;
    claimer[d] = omp_get_thread_num();
    return true;
  }
  [[nodiscard]] bool cond(vid_t) const { return true; }
};

TEST(Kernels, SparsePushOutputOrderAndStatistics) {
  // Above the |V|/64 cut the push returns an id-sorted list; below it the
  // per-thread slot lists concatenated in thread order.  Either way the
  // set equals a serial reference sweep, and the |F| and Σ deg the push
  // summed in its slots equal a recount of the list.
  for (const auto& [el, name] :
       {std::pair{graph::road_lattice(64, 64, 0.05, 3), "lattice"},
        std::pair{graph::rmat(11, 8, 17), "rmat"}}) {
    const Graph g = Graph::build(graph::EdgeList(el));
    const vid_t n = g.num_vertices();
    const std::size_t cut = bitmap_words(n);
    for (const int threads : {1, 4}) {
      ThreadCountGuard guard(threads);
      TraversalWorkspace ws;
      auto check = [&]<Direction D>() {
        const graph::Csr& adj = push_index<D>(g);
        // Serial reference: sources in list order, destinations in row
        // order, each claimed by its first visit.
        auto reference = [&](const std::vector<vid_t>& verts) {
          std::vector<unsigned char> seen(n, 0);
          std::vector<vid_t> out;
          for (const vid_t s : verts)
            for (const vid_t d : adj.neighbors(s))
              if (seen[d] == 0) {
                seen[d] = 1;
                out.push_back(d);
              }
          return out;
        };
        std::vector<vid_t> large;
        for (vid_t v = 0; v < n; v += 7) large.push_back(v);
        // Grow a frontier from the high ids down while its output stays
        // below the cut, so the slot lists are not already sorted.
        std::vector<vid_t> small;
        for (vid_t v = n; v-- > 0;) {
          small.push_back(v);
          if (reference(small).size() > cut) {
            small.pop_back();
            break;
          }
        }
        for (const auto& verts : {large, small}) {
          const std::vector<vid_t> want = reference(verts);
          const bool above = want.size() > cut;
          const std::string where = std::string(name) + " threads=" +
                                    std::to_string(threads) + " transpose=" +
                                    std::to_string(D == Direction::kTranspose) +
                                    (above ? " above" : " below") + " the cut";
          ASSERT_FALSE(want.empty()) << where;
          std::vector<unsigned char> claimed(n, 0);
          std::vector<int> claimer(n, -1);
          ClaimProbeOp op{claimed.data(), claimer.data()};
          Frontier f = Frontier::from_vertices(n, verts, &adj);
          Frontier out = traverse_csr_sparse<D>(g, f, op, nullptr, ws);
          ASSERT_FALSE(out.is_dense()) << where;
          const std::vector<vid_t> got(out.vertices().begin(),
                                       out.vertices().end());
          if (above) {
            for (std::size_t i = 1; i < got.size(); ++i)
              ASSERT_LT(got[i - 1], got[i]) << where << " i=" << i;
          } else if (threads == 1) {
            EXPECT_EQ(got, want) << where;  // one slot, in claim order
          } else {
            for (std::size_t i = 1; i < got.size(); ++i)
              ASSERT_LE(claimer[got[i - 1]], claimer[got[i]])
                  << where << " i=" << i;
          }
          std::vector<vid_t> got_set = got;
          std::vector<vid_t> want_set = want;
          std::ranges::sort(got_set);
          std::ranges::sort(want_set);
          EXPECT_EQ(got_set, want_set) << where;
          const vid_t active = out.num_active();
          const eid_t degree = out.active_out_degree();
          out.recount(&adj);
          EXPECT_EQ(active, out.num_active()) << where;
          EXPECT_EQ(degree, out.active_out_degree()) << where;
          out.into_workspace(ws);
        }
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
  bool update(vid_t, vid_t, weight_t) { return true; }
  bool update_atomic(vid_t, vid_t, weight_t) { return true; }
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
    const Graph g = Graph::build(graph::EdgeList(el), b);
    const vid_t n = g.num_vertices();
    EXPECT_EQ(g.partitioning_edges().word_aligned(), align == 64)
        << "align=" << align;

    for (const auto& [layout, kind] :
         {std::pair{Layout::kBackwardCsc, TraversalKind::kBackwardCsc},
          std::pair{Layout::kDenseCoo, TraversalKind::kDenseCoo},
          std::pair{Layout::kPartitionedCsr, TraversalKind::kPartitionedCsr}}) {
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

// ---------------------------------------------------------------------------
// Claim-and-accumulate operators through the partition-parallel kernels.
// Every work item runs a private copy of the operator (operators.hpp), so
// these check that nothing is lost with a copy and that the claim and mark
// stores give the exact receiver set at every thread count, atomics mode
// and boundary alignment.

/// Serial PRDelta accumulation over `layout`'s own edge order: each
/// destination receives its contributions in the order the single-writer
/// kernel applies them, so a non-atomic sweep must match it bit for bit.
std::vector<double> serial_delta_sums(const Graph& g, Layout layout,
                                      const std::vector<bool>& active,
                                      const std::vector<double>& contrib) {
  std::vector<double> acc(g.num_vertices(), 0.0);
  if (layout == Layout::kDenseCoo) {
    for (part_t p = 0; p < g.coo().num_partitions(); ++p)
      for (const Edge& e : g.coo().edges(p))
        if (active[e.src]) acc[e.dst] += contrib[e.src];
  } else if (layout == Layout::kBackwardCsc) {
    const graph::Csr& csc = gather_index<Direction::kForward>(g);
    for (vid_t d = 0; d < g.num_vertices(); ++d)
      for (const vid_t s : csc.neighbors(d))
        if (active[s]) acc[d] += contrib[s];
  } else {
    const auto& pc = g.partitioned_csr();
    for (part_t p = 0; p < pc.num_partitions(); ++p) {
      const auto& part = pc.part(p);
      for (vid_t i = 0; i < part.num_local_vertices(); ++i) {
        const vid_t s = part.vertex_ids[i];
        if (!active[s]) continue;
        for (eid_t j = part.offsets[i]; j < part.offsets[i + 1]; ++j)
          acc[part.targets[j]] += contrib[s];
      }
    }
  }
  return acc;
}

constexpr std::pair<Layout, TraversalKind> kPartitionKernels[] = {
    {Layout::kDenseCoo, TraversalKind::kDenseCoo},
    {Layout::kBackwardCsc, TraversalKind::kBackwardCsc},
    {Layout::kPartitionedCsr, TraversalKind::kPartitionedCsr}};

TEST(Kernels, ClaimingOperatorMatchesSerialReference) {
  const auto el = graph::rmat(11, 8, 77);
  const vid_t n = el.num_vertices();
  std::vector<bool> active(n, false);
  std::vector<vid_t> verts;
  for (vid_t v = 0; v < n; v += 3) {
    active[v] = true;
    verts.push_back(v);
  }
  std::vector<std::uint64_t> unused;
  std::vector<bool> receivers;
  oracle(el, active, unused, receivers);
  // Inexact fractions, so a different summation order shows in the bits.
  std::vector<double> contrib(n);
  for (vid_t v = 0; v < n; ++v)
    contrib[v] = 1.0 / (3.0 + static_cast<double>(v % 17));

  for (const vid_t align : {1u, 64u}) {
    BuildOptions b;
    b.num_partitions = 64;
    b.boundary_align = align;
    b.build_partitioned_csr = true;
    const Graph g = Graph::build(graph::EdgeList(el), b);

    for (const auto& [layout, kind] : kPartitionKernels) {
      const std::vector<double> want = serial_delta_sums(g, layout, active,
                                                         contrib);
      for (const AtomicsMode atomics :
           {AtomicsMode::kForceOff, AtomicsMode::kForceOn}) {
        for (const int threads : {1, 2, 4}) {
          ThreadCountGuard guard(threads);
          Options opts;
          opts.layout = layout;
          opts.atomics = atomics;
          opts.sparse_fraction = 0.0;  // keep the frontier off the push
          Engine eng(g, opts);
          std::vector<double> acc(n, 0.0);
          std::vector<unsigned char> claimed(n, 0);
          Frontier f = Frontier::from_vertices(n, verts, &g.csr());
          const Frontier next = eng.edge_map(
              f, algorithms::detail::PrDeltaOp{
                     {}, contrib.data(), acc.data(), claimed.data()});
          const std::string where =
              to_string(kind) + " align=" +
              std::to_string(align) + " atomics=" +
              (atomics == AtomicsMode::kForceOn ? "on" : "off") +
              " threads=" + std::to_string(threads);
          ASSERT_EQ(eng.stats().calls_for(kind), 1u) << where;
          for (vid_t v = 0; v < n; ++v) {
            ASSERT_EQ(next.contains(v), receivers[v]) << where << " v=" << v;
            ASSERT_EQ(claimed[v] != 0, receivers[v]) << where << " v=" << v;
          }
          if (atomics == AtomicsMode::kForceOff) {
            EXPECT_EQ(acc, want) << where;  // bit for bit
          } else {
            for (vid_t v = 0; v < n; ++v)
              ASSERT_NEAR(acc[v], want[v], 1e-12 * (1.0 + want[v]))
                  << where << " v=" << v;
          }
        }
      }
    }
  }
}

TEST(Kernels, ReferenceCapturingLambdaKeepsStateInEveryKernel) {
  // All of this operator's state lives outside it, captured by reference,
  // so the kernels' per-item and per-thread copies must all write the same
  // sums, flags and edge counter.
  const auto el = graph::rmat(10, 8, 19);
  BuildOptions b;
  b.num_partitions = 16;
  b.build_partitioned_csr = true;
  const Graph g = Graph::build(graph::EdgeList(el), b);
  const vid_t n = g.num_vertices();
  std::vector<bool> active(n, false);
  std::vector<vid_t> verts;
  for (vid_t v = 0; v < n; v += 5) {
    active[v] = true;
    verts.push_back(v);
  }
  std::vector<std::uint64_t> want_acc;
  std::vector<bool> want_next;
  oracle(el, active, want_acc, want_next);
  eid_t want_applied = 0;
  for (const Edge& e : el.edges()) want_applied += active[e.src] ? 1 : 0;

  ThreadCountGuard guard(4);
  for (const auto& [layout, kind] :
       {std::pair{Layout::kSparseCsr, TraversalKind::kSparseCsr},
        std::pair{Layout::kBackwardCsc, TraversalKind::kBackwardCsc},
        std::pair{Layout::kDenseCoo, TraversalKind::kDenseCoo},
        std::pair{Layout::kPartitionedCsr, TraversalKind::kPartitionedCsr}}) {
    for (const AtomicsMode atomics :
         {AtomicsMode::kForceOff, AtomicsMode::kForceOn}) {
      std::vector<std::uint64_t> acc(n, 0);
      std::vector<unsigned char> claimed(n, 0);
      std::atomic<eid_t> applied{0};
      auto op = make_edge_op(
          [&](vid_t s, vid_t d, weight_t) {
            acc[d] += s + 1;
            applied.fetch_add(1, std::memory_order_relaxed);
            if (claimed[d] != 0) return false;
            claimed[d] = 1;
            return true;
          },
          [&](vid_t s, vid_t d, weight_t) {
            atomic_add(acc[d], static_cast<std::uint64_t>(s) + 1);
            applied.fetch_add(1, std::memory_order_relaxed);
            return atomic_claim(claimed[d]);
          },
          [](vid_t) { return true; });
      Options opts;
      opts.layout = layout;
      opts.atomics = atomics;
      opts.sparse_fraction = 0.0;
      Engine eng(g, opts);
      Frontier f = Frontier::from_vertices(n, verts, &g.csr());
      const Frontier next = eng.edge_map(f, op);
      const std::string where =
          to_string(kind) +
          (atomics == AtomicsMode::kForceOn ? " +a" : " +na");
      ASSERT_EQ(eng.stats().calls_for(kind), 1u) << where;
      EXPECT_EQ(applied.load(), want_applied) << where;
      EXPECT_EQ(acc, want_acc) << where;
      for (vid_t v = 0; v < n; ++v)
        ASSERT_EQ(next.contains(v), want_next[v]) << where << " v=" << v;
    }
  }
}

// ---------------------------------------------------------------------------
// Bit-identity of the non-atomic dense COO sweep across thread counts, per
// accumulating workload.  Each destination partition is reduced by one
// thread in its fixed edge order, so the floating-point sums cannot depend
// on how many threads share the partitions.

struct CooThreadCase {
  graph::VertexOrdering ordering;
  part_t partitions;
  int domains;
};

class CooThreadIdentity : public ::testing::TestWithParam<CooThreadCase> {};

TEST_P(CooThreadIdentity, MatchesOneThreadBitwiseForAllAccumulatingWorkloads) {
  const CooThreadCase c = GetParam();
  BuildOptions b;
  b.ordering = c.ordering;
  b.num_partitions = c.partitions;
  b.boundary_align = 8;
  b.numa_domains = c.domains;
  const Graph g = Graph::build(graph::rmat(8, 8, 7), b);

  // sparse_fraction 0 keeps every round on the forced dense COO.
  Options opts;
  opts.layout = Layout::kDenseCoo;
  opts.atomics = AtomicsMode::kForceOff;
  opts.sparse_fraction = 0.0;

  std::vector<double> x(g.num_vertices());
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    x[v] = 0.25 + static_cast<double>(v % 9);

  algorithms::PageRankDeltaOptions prd;
  prd.epsilon = 1e-7;  // keep rounds active deep into the run

  struct Results {
    std::vector<double> pr, prd, y, b0;
  };
  const auto run = [&](int threads) {
    ThreadCountGuard guard(threads);
    TraversalWorkspace ws;
    Engine eng(g, opts, ws);
    Results r;
    r.pr = algorithms::pagerank(eng, {}).rank;
    r.prd = algorithms::pagerank_delta(eng, prd).rank;
    r.y = algorithms::spmv(eng, x).y;
    r.b0 = algorithms::belief_propagation(eng, {}).belief0;
    EXPECT_GT(eng.stats().calls_for(TraversalKind::kDenseCoo), 0u)
        << "threads=" << threads;
    return r;
  };

  // 4 threads with P ≥ 4 runs the kernel partition-parallel over
  // boundaries aligned to 8, so partitions share bitmap words — the
  // multi-writer case a 1-CPU runner would otherwise never exercise.
  const Results base = run(1);
  const Results got = run(4);

  // EXPECT_EQ, not NEAR: every double must match bit for bit.
  EXPECT_EQ(got.pr, base.pr) << "PR";
  EXPECT_EQ(got.prd, base.prd) << "PRDelta";
  EXPECT_EQ(got.y, base.y) << "SPMV";
  EXPECT_EQ(got.b0, base.b0) << "BP";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CooThreadIdentity,
    ::testing::Values(
        // Partition × domain sweep under the identity ordering, including
        // the degenerate single-partition layout.
        CooThreadCase{graph::VertexOrdering::kOriginal, 1, 1},
        CooThreadCase{graph::VertexOrdering::kOriginal, 3, 2},
        CooThreadCase{graph::VertexOrdering::kOriginal, 8, 4},
        CooThreadCase{graph::VertexOrdering::kOriginal, 16, 2},
        // Ordering sweep: relabelling changes the partition contents, never
        // the identity contract.
        CooThreadCase{graph::VertexOrdering::kDegreeDesc, 8, 2},
        CooThreadCase{graph::VertexOrdering::kHilbert, 8, 4},
        CooThreadCase{graph::VertexOrdering::kChildOrder, 8, 4}),
    [](const auto& info) {
      std::string name = graph::ordering_name(info.param.ordering);
      for (char& ch : name)
        if (ch == '-') ch = '_';  // gtest names must be [A-Za-z0-9_]
      return name + "_p" + std::to_string(info.param.partitions) + "_d" +
             std::to_string(info.param.domains);
    });

}  // namespace
}  // namespace grind::engine
