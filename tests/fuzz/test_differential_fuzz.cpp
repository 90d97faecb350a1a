// Differential fuzzing: random graphs × random build knobs, every
// *registered* algorithm checked against its descriptor's oracle hook in
// original-ID space.  The case loop iterates the AlgorithmRegistry, so an
// algorithm is fuzzed the moment it self-registers — there is no hand-kept
// list here — and the final assertion pins that every registry entry was
// actually exercised (count > 0), so an algorithm silently dropping out of
// the sweep fails the suite.
//
// Each case is driven by one seed; on failure the SCOPED_TRACE line prints
// the full reproducer configuration, so a failing case can be replayed by
// pinning kBaseSeed + the iteration number.
//
// Graph families deliberately include the degenerate shapes the layouts
// must survive: stars (one giant partition row), chains (diameter |V|),
// self-loops, parallel edges (multigraph), and disconnected unions.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "algorithms/bfs.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/registry.hpp"
#include "engine/engine.hpp"
#include "engine/workspace.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/reorder.hpp"
#include "partition/registry.hpp"

namespace grind::algorithms {
namespace {

constexpr std::uint64_t kBaseSeed = 0x67726e64'32303236ull;
constexpr int kCases = 28;

const char* const kFamilyNames[] = {"erdos_renyi", "rmat",      "star",
                                    "chain",       "self_loop", "parallel_edge",
                                    "disconnected"};

/// Random weights in [0.5, 4.5): gives Bellman-Ford / SPMV / BP non-trivial
/// work while keeping Dijkstra's non-negativity precondition.
void randomize_weights(graph::EdgeList& el, std::mt19937_64& rng) {
  std::uniform_real_distribution<float> w(0.5f, 4.5f);
  for (auto& e : el.edges()) e.weight = w(rng);
}

graph::EdgeList make_graph(int family, std::mt19937_64& rng) {
  const std::uint64_t gseed = rng();
  std::uniform_int_distribution<vid_t> nvert(2, 120);
  switch (family) {
    case 0: {  // Erdős–Rényi
      const vid_t n = nvert(rng);
      const eid_t m = std::uniform_int_distribution<eid_t>(0, 4 * n)(rng);
      return graph::erdos_renyi(n, m, gseed);
    }
    case 1: {  // R-MAT (heavy-tailed)
      const int scale = std::uniform_int_distribution<int>(4, 7)(rng);
      const eid_t ef = std::uniform_int_distribution<eid_t>(2, 8)(rng);
      return graph::rmat(scale, ef, gseed);
    }
    case 2:  // star: hub with |V|-1 out-edges
      return graph::star(nvert(rng));
    case 3:  // chain: diameter |V|-1
      return graph::path(nvert(rng));
    case 4: {  // self-loops sprinkled over a random base
      auto el = graph::erdos_renyi(nvert(rng), 150, gseed);
      std::uniform_int_distribution<vid_t> v(0, el.num_vertices() - 1);
      for (int i = 0; i < 10; ++i) {
        const vid_t u = v(rng);
        el.add(u, u);
      }
      return el;
    }
    case 5: {  // parallel edges: duplicate random existing edges
      auto el = graph::erdos_renyi(nvert(rng), 150, gseed);
      if (el.num_edges() > 0) {
        std::uniform_int_distribution<eid_t> pick(0, el.num_edges() - 1);
        for (int i = 0; i < 12; ++i) {
          const auto e = el.edge(pick(rng));
          el.add(e.src, e.dst, e.weight);
        }
      }
      return el;
    }
    default: {  // disconnected union of two blocks (plus possible isolates)
      const vid_t n1 = nvert(rng), n2 = nvert(rng);
      auto a = graph::erdos_renyi(n1, 2 * n1, gseed);
      const auto b = graph::erdos_renyi(n2, 2 * n2, gseed ^ 0x9e3779b9ull);
      for (const auto& e : b.edges()) a.add(e.src + n1, e.dst + n1, e.weight);
      a.set_num_vertices(n1 + n2);
      return a;
    }
  }
}

struct Knobs {
  graph::VertexOrdering ordering;
  part_t partitions;
  vid_t boundary_align;
  engine::Layout layout;
  engine::AtomicsMode atomics;
  int domains;  ///< NUMA-domain count: exercises domain-affine scheduling
  /// Partitioning strategy for the build's assign stage.  Round-robin over
  /// the registry (iteration mod size), not rng-drawn: with kCases ≥ the
  /// registry size every strategy is guaranteed to be exercised, so the
  /// count>0 assertion below can never flake.
  const partition::PartitionerDesc* partitioner;
  std::uint64_t partitioner_seed;  ///< fed to strategies with a "seed" param
};

Knobs make_knobs(std::mt19937_64& rng, int iter) {
  const auto& orderings = graph::all_orderings();
  static constexpr part_t kParts[] = {0, 1, 2, 3, 5, 8};
  static constexpr vid_t kAligns[] = {8, 64};
  static constexpr engine::Layout kLayouts[] = {
      engine::Layout::kAuto, engine::Layout::kBackwardCsc,
      engine::Layout::kDenseCoo, engine::Layout::kPartitionedCsr};
  static constexpr engine::AtomicsMode kAtomics[] = {
      engine::AtomicsMode::kAuto, engine::AtomicsMode::kForceOn,
      engine::AtomicsMode::kForceOff};
  // Domain counts bracket the interesting regimes: trivial (1), fewer
  // domains than typical thread counts, the paper's 4, and more domains
  // than partitions on small graphs (8).  Every algorithm must produce
  // identical results across all of them — the domain-affine scheduler may
  // only change *who* processes a partition, never the outcome.
  static constexpr int kDomains[] = {1, 2, 3, 4, 8};
  Knobs k;
  k.ordering = orderings[rng() % orderings.size()];
  k.partitions = kParts[rng() % std::size(kParts)];
  k.boundary_align = kAligns[rng() % std::size(kAligns)];
  k.layout = kLayouts[rng() % std::size(kLayouts)];
  k.atomics = kAtomics[rng() % std::size(kAtomics)];
  k.domains = kDomains[rng() % std::size(kDomains)];
  const auto partitioners = partition::PartitionerRegistry::instance().entries();
  k.partitioner = partitioners[static_cast<std::size_t>(iter) %
                               partitioners.size()];
  k.partitioner_seed = rng() % 1000;
  return k;
}

std::string layout_str(engine::Layout l) { return engine::to_string(l); }

TEST(DifferentialFuzz, AllRegisteredAlgorithmsMatchOraclesAcrossConfigs) {
  const auto entries = AlgorithmRegistry::instance().entries();
  ASSERT_GE(entries.size(), 9u);  // eight Table-II workloads + k-core
  const auto partitioners = partition::PartitionerRegistry::instance().entries();
  ASSERT_GE(partitioners.size(), 6u);
  ASSERT_GE(kCases, static_cast<int>(partitioners.size()))
      << "round-robin cannot cover the registry";
  std::map<std::string, int> exercised;
  std::map<std::string, int> checked;
  std::map<std::string, int> partitioner_exercised;

  for (int iter = 0; iter < kCases; ++iter) {
    const std::uint64_t seed = kBaseSeed + static_cast<std::uint64_t>(iter);
    std::mt19937_64 rng(seed);

    const int family = static_cast<int>(rng() % 7);
    graph::EdgeList el = make_graph(family, rng);
    randomize_weights(el, rng);
    const Knobs k = make_knobs(rng, iter);

    std::ostringstream repro;
    repro << "reproducer: seed=" << seed << " (kBaseSeed+" << iter << ")"
          << " family=" << kFamilyNames[family] << " n=" << el.num_vertices()
          << " m=" << el.num_edges()
          << " ordering=" << graph::ordering_name(k.ordering)
          << " partitions=" << k.partitions << " align=" << k.boundary_align
          << " layout=" << layout_str(k.layout)
          << " atomics=" << static_cast<int>(k.atomics)
          << " domains=" << k.domains
          << " partitioner=" << k.partitioner->name
          << " pseed=" << k.partitioner_seed;
    SCOPED_TRACE(repro.str());

    graph::BuildOptions bopts;
    bopts.ordering = k.ordering;
    bopts.num_partitions = k.partitions;
    bopts.boundary_align = k.boundary_align;
    bopts.numa_domains = k.domains;
    bopts.partitioner = k.partitioner->name;
    if (k.partitioner->schema.find("seed") != nullptr)
      bopts.partitioner_params.set("seed", k.partitioner_seed);
    ++partitioner_exercised[k.partitioner->name];
    bopts.build_partitioned_csr =
        k.layout == engine::Layout::kPartitionedCsr;
    const graph::Graph g = graph::Graph::build(graph::EdgeList(el), bopts);

    engine::Options eopts;
    eopts.layout = k.layout;
    eopts.atomics = k.atomics;
    engine::TraversalWorkspace ws;

    const vid_t n = g.num_vertices();
    const vid_t source = static_cast<vid_t>(rng() % n);

    CheckContext cx;
    cx.el = &el;
    // "Identity" now means the *composed* relabeling (ordering ∘ assign):
    // a permuting partitioner breaks the label-propagation fixpoint's ID
    // dependence just like a reordering does, so ask the built graph.
    cx.identity_ordering = g.remap().is_identity();

    for (const AlgorithmDesc* desc : entries) {
      SCOPED_TRACE("algorithm=" + desc->name);
      // Per-algorithm fuzz overrides (PRDelta tightens epsilon so its
      // oracle comparison converges; SPMV feeds a non-uniform x), plus the
      // shared random source for source-taking entries.
      Params params = desc->fuzz_params ? desc->fuzz_params(n) : Params{};
      if (desc->caps.needs_source) params.set("source", source);
      Params resolved;
      AnyResult result;
      try {
        resolved = desc->resolve(params, g);
        engine::Engine eng(g, eopts, ws);
        result = desc->run_resolved(eng, resolved);
      } catch (const std::exception& e) {
        FAIL() << desc->name << " threw: " << e.what();
      }
      ++exercised[desc->name];
      if (!desc->check) continue;
      try {
        // The hook reports whether it really compared (CC skips under
        // non-identity orderings) — only real comparisons count.
        if (desc->check(cx, resolved, result)) ++checked[desc->name];
      } catch (const std::exception& e) {
        FAIL() << desc->name << " oracle mismatch: " << e.what();
      }
    }
  }

  // Every registered algorithm must actually have run — a registry entry
  // the sweep skips is a wiring bug, not a passing test.
  for (const AlgorithmDesc* desc : entries) {
    EXPECT_GT(exercised[desc->name], 0)
        << desc->name << " was never exercised by the fuzz sweep";
    if (desc->check)
      EXPECT_GT(checked[desc->name], 0)
          << desc->name << " was never oracle-checked by the fuzz sweep";
  }
  // Same for the partitioner registry: every strategy must have built at
  // least one fuzzed graph (the round-robin guarantees it while the
  // registry is no larger than kCases).
  for (const auto* pdesc : partitioners)
    EXPECT_GT(partitioner_exercised[pdesc->name], 0)
        << pdesc->name << " was never exercised by the fuzz sweep";
}

TEST(DifferentialFuzz, DomainCountNeverChangesAlgorithmOutputs) {
  // Direct cross-domain identity: the same graph built at domains ∈
  // {1,2,4,8} must produce bit-identical BFS levels and numerically
  // identical PageRank under the domain-affine scheduler.  (The main sweep
  // checks each domain count against the oracles; this pins the pairwise
  // claim explicitly.)
  std::mt19937_64 rng(kBaseSeed ^ 0xD0D0ull);
  for (int family : {0, 1, 2, 6}) {
    graph::EdgeList el = make_graph(family, rng);
    randomize_weights(el, rng);
    const vid_t source = static_cast<vid_t>(rng() % el.num_vertices());
    SCOPED_TRACE(std::string("family=") + kFamilyNames[family] +
                 " n=" + std::to_string(el.num_vertices()) +
                 " source=" + std::to_string(source));

    std::vector<std::int64_t> base_levels;
    std::vector<double> base_rank;
    for (int domains : {1, 2, 4, 8}) {
      graph::BuildOptions bopts;
      bopts.numa_domains = domains;
      const graph::Graph g = graph::Graph::build(graph::EdgeList(el), bopts);
      engine::TraversalWorkspace ws;
      engine::Engine eng(g, {}, ws);
      const auto levels = bfs(eng, source).level;
      const auto rank = pagerank(eng).rank;
      if (domains == 1) {
        base_levels = levels;
        base_rank = rank;
        continue;
      }
      ASSERT_EQ(levels, base_levels) << "domains=" << domains;
      ASSERT_EQ(rank.size(), base_rank.size());
      for (std::size_t v = 0; v < rank.size(); ++v)
        ASSERT_DOUBLE_EQ(rank[v], base_rank[v])
            << "domains=" << domains << " v=" << v;
    }
  }
}

}  // namespace
}  // namespace grind::algorithms
