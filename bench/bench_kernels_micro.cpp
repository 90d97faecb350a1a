// Google-benchmark microbenchmarks of the individual traversal kernels, the
// layout build and substrate primitives — the per-edge costs behind every
// figure — plus a counting-allocator audit proving that steady-state
// edge_map iterations (iteration ≥ 2 of PageRank / the second BFS run on a
// warm engine / round ≥ 2 of PageRank-delta, edge_map plus vertex_map /
// every round of a warm BFS through the bare sparse push) perform zero heap
// allocations when driven through a TraversalWorkspace.
//
// The audit emits one JSON object to stdout (before the benchmark table) so
// successive PRs can track the allocation/time trajectory mechanically:
//   {"bench":"steady_state_audit","graph":"rmat16", ...}
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "algorithms/bfs.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/pagerank_delta.hpp"
#include "engine/edge_map.hpp"
#include "engine/engine.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "partition/hilbert.hpp"
#include "suite.hpp"
#include "sys/atomics.hpp"
#include "sys/bitmap.hpp"
#include "sys/parallel.hpp"
#include "sys/timer.hpp"

// ------------------------------------------------------------------------
// Counting allocator hook: every global new/delete in this binary bumps a
// relaxed atomic.  Reads around a measured region give its allocation count.
// ------------------------------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace grind;

std::uint64_t allocs_now() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

const graph::Graph& micro_graph() {
  static const graph::Graph g = [] {
    graph::BuildOptions b;
    b.num_partitions = 256;
    b.build_partitioned_csr = true;
    return graph::Graph::build(graph::rmat(16, 16, 7), b);
  }();
  return g;
}

struct AccumOp {
  double* acc;
  const double* x;
  bool update(vid_t s, vid_t d, weight_t w) {
    acc[d] += static_cast<double>(w) * x[s];
    return false;
  }
  bool update_atomic(vid_t s, vid_t d, weight_t w) {
    atomic_add(acc[d], static_cast<double>(w) * x[s]);
    return false;
  }
  [[nodiscard]] bool cond(vid_t) const { return true; }
};

// ---------------------------------------------------------------- kernels ---

/// Fresh-allocation path: every call rebuilds the frontier and runs with a
/// new TraversalWorkspace, so all scratch is allocated per call.
void run_layout(benchmark::State& state, engine::Layout layout,
                engine::AtomicsMode atomics) {
  const auto& g = micro_graph();
  std::vector<double> acc(g.num_vertices(), 0.0);
  std::vector<double> x(g.num_vertices(), 1.0);
  engine::Options opts;
  opts.layout = layout;
  opts.atomics = atomics;
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t before = allocs_now();
    Frontier all = Frontier::all(g.num_vertices(), &g.csr());
    engine::TraversalWorkspace ws;
    engine::edge_map(g, all, AccumOp{acc.data(), x.data()}, ws, opts);
    benchmark::DoNotOptimize(acc.data());
    allocs += allocs_now() - before;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
  state.counters["allocs/iter"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(state.iterations()));
}

/// Workspace path: one Engine (thus one TraversalWorkspace), the input
/// frontier hoisted, output frontiers recycled — the steady-state regime of
/// every iterative algorithm after this PR.
void run_layout_reused(benchmark::State& state, engine::Layout layout,
                       engine::AtomicsMode atomics) {
  const auto& g = micro_graph();
  std::vector<double> acc(g.num_vertices(), 0.0);
  std::vector<double> x(g.num_vertices(), 1.0);
  engine::Options opts;
  opts.layout = layout;
  opts.atomics = atomics;
  engine::Engine eng(g, opts);
  Frontier all = Frontier::all(g.num_vertices(), &g.csr());
  {  // warm the pools so the loop below measures the steady state
    Frontier next = eng.edge_map(all, AccumOp{acc.data(), x.data()});
    eng.recycle(next);
  }
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t before = allocs_now();
    Frontier next = eng.edge_map(all, AccumOp{acc.data(), x.data()});
    eng.recycle(next);
    benchmark::DoNotOptimize(acc.data());
    allocs += allocs_now() - before;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
  state.counters["allocs/iter"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(state.iterations()));
}

void BM_EdgeMap_CooNoAtomics(benchmark::State& state) {
  run_layout(state, engine::Layout::kDenseCoo, engine::AtomicsMode::kForceOff);
}
BENCHMARK(BM_EdgeMap_CooNoAtomics);

void BM_EdgeMap_CooNoAtomics_Reused(benchmark::State& state) {
  run_layout_reused(state, engine::Layout::kDenseCoo,
                    engine::AtomicsMode::kForceOff);
}
BENCHMARK(BM_EdgeMap_CooNoAtomics_Reused);

/// The claim-and-mark sweep of PageRank-delta's dense rounds: PrDeltaOp
/// over a full frontier through the non-atomic COO, each destination
/// claimed (byte flag) and marked on its first update.  The flags are
/// cleared before each sweep, a 1-byte-per-vertex fill timed with it, as
/// the algorithm's vertex_map clears them between rounds.
void BM_EdgeMap_CooClaim_Reused(benchmark::State& state) {
  const auto& g = micro_graph();
  const vid_t n = g.num_vertices();
  std::vector<double> contrib(n, 1.0 / static_cast<double>(n));
  std::vector<double> acc(n, 0.0);
  std::vector<unsigned char> claimed(n, 0);
  engine::Options opts;
  opts.layout = engine::Layout::kDenseCoo;
  opts.atomics = engine::AtomicsMode::kForceOff;
  engine::Engine eng(g, opts);
  Frontier all = Frontier::all(n, &g.csr());
  const auto sweep = [&] {
    std::fill(claimed.begin(), claimed.end(), 0);
    Frontier next = eng.edge_map(
        all, algorithms::detail::PrDeltaOp{
                 {}, contrib.data(), acc.data(), claimed.data()});
    eng.recycle(next);
  };
  sweep();  // warm the pools so the loop below measures the steady state
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t before = allocs_now();
    sweep();
    benchmark::DoNotOptimize(acc.data());
    benchmark::ClobberMemory();
    allocs += allocs_now() - before;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
  state.counters["allocs/iter"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_EdgeMap_CooClaim_Reused);

void BM_EdgeMap_CooAtomics(benchmark::State& state) {
  run_layout(state, engine::Layout::kDenseCoo, engine::AtomicsMode::kForceOn);
}
BENCHMARK(BM_EdgeMap_CooAtomics);

void BM_EdgeMap_CooAtomics_Reused(benchmark::State& state) {
  run_layout_reused(state, engine::Layout::kDenseCoo,
                    engine::AtomicsMode::kForceOn);
}
BENCHMARK(BM_EdgeMap_CooAtomics_Reused);

void BM_EdgeMap_BackwardCsc(benchmark::State& state) {
  run_layout(state, engine::Layout::kBackwardCsc,
             engine::AtomicsMode::kForceOff);
}
BENCHMARK(BM_EdgeMap_BackwardCsc);

void BM_EdgeMap_BackwardCsc_Reused(benchmark::State& state) {
  run_layout_reused(state, engine::Layout::kBackwardCsc,
                    engine::AtomicsMode::kForceOff);
}
BENCHMARK(BM_EdgeMap_BackwardCsc_Reused);

void BM_EdgeMap_PartitionedCsr(benchmark::State& state) {
  run_layout(state, engine::Layout::kPartitionedCsr,
             engine::AtomicsMode::kForceOn);
}
BENCHMARK(BM_EdgeMap_PartitionedCsr);

void BM_EdgeMap_PartitionedCsr_Reused(benchmark::State& state) {
  run_layout_reused(state, engine::Layout::kPartitionedCsr,
                    engine::AtomicsMode::kForceOn);
}
BENCHMARK(BM_EdgeMap_PartitionedCsr_Reused);

void BM_SparsePush(benchmark::State& state) {
  const auto& g = micro_graph();
  std::vector<double> acc(g.num_vertices(), 0.0);
  std::vector<double> x(g.num_vertices(), 1.0);
  std::vector<vid_t> verts;
  for (vid_t v = 0; v < g.num_vertices(); v += 97) verts.push_back(v);
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t before = allocs_now();
    Frontier f = Frontier::from_vertices(g.num_vertices(), verts, &g.csr());
    AccumOp op{acc.data(), x.data()};
    eid_t edges = 0;
    engine::TraversalWorkspace ws;
    engine::traverse_csr_sparse(g, f, op, &edges, ws);
    benchmark::DoNotOptimize(edges);
    allocs += allocs_now() - before;
  }
  state.counters["allocs/iter"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_SparsePush);

void BM_SparsePush_Reused(benchmark::State& state) {
  const auto& g = micro_graph();
  std::vector<double> acc(g.num_vertices(), 0.0);
  std::vector<double> x(g.num_vertices(), 1.0);
  std::vector<vid_t> verts;
  for (vid_t v = 0; v < g.num_vertices(); v += 97) verts.push_back(v);
  engine::TraversalWorkspace ws;
  std::uint64_t allocs = 0;
  Frontier f = Frontier::from_vertices(g.num_vertices(), verts, &g.csr());
  {  // warm the pools so the loop below measures the steady state
    AccumOp op{acc.data(), x.data()};
    Frontier next = engine::traverse_csr_sparse(g, f, op, nullptr, ws);
    next.into_workspace(ws);
  }
  for (auto _ : state) {
    const std::uint64_t before = allocs_now();
    AccumOp op{acc.data(), x.data()};
    eid_t edges = 0;
    Frontier next = engine::traverse_csr_sparse(g, f, op, &edges, ws);
    next.into_workspace(ws);
    benchmark::DoNotOptimize(edges);
    allocs += allocs_now() - before;
  }
  state.counters["allocs/iter"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_SparsePush_Reused);

void BM_HilbertKey(benchmark::State& state) {
  const std::uint32_t order = 20;
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition::hilbert_xy_to_d(
        order, static_cast<std::uint32_t>(i * 2654435761u) & 0xfffffu,
        static_cast<std::uint32_t>(i * 40503u) & 0xfffffu));
    ++i;
  }
}
BENCHMARK(BM_HilbertKey);

void BM_FrontierDenseToSparse(benchmark::State& state) {
  const vid_t n = 1 << 20;
  Bitmap bits(n);
  for (vid_t v = 0; v < n; v += 3) bits.set(v);
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t before = allocs_now();
    Bitmap copy = bits;
    Frontier f = Frontier::from_bitmap(std::move(copy));
    engine::TraversalWorkspace ws;
    f.to_sparse(ws);
    benchmark::DoNotOptimize(f.vertices().data());
    allocs += allocs_now() - before;
  }
  state.counters["allocs/iter"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_FrontierDenseToSparse);

void BM_PrefixSum(benchmark::State& state) {
  std::vector<eid_t> in(1 << 20, 3), out(1 << 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        exclusive_scan(in.data(), out.data(), in.size()));
  }
}
BENCHMARK(BM_PrefixSum);

/// The builder's layouts stage on RMAT 2^16: CSR by scatter and row sort,
/// CSC by transposing it, the partitioned COO from both.  Arg = threads;
/// items/s = edges/s.
void BM_BuildLayouts(benchmark::State& state) {
  static const auto input = [] {
    graph::EdgeList el = graph::rmat(16, 16, 7);
    graph::BuildOptions b;
    b.num_partitions = 256;
    partition::Partitioning parts =
        graph::GraphBuilder(el, b).partitioning_edges();
    return std::pair(std::move(el), std::move(parts));
  }();
  const auto& [el, parts] = input;
  ThreadCountGuard threads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const graph::Csr csr = graph::Csr::build(el, graph::Adjacency::kOut);
    const graph::Csr csc = csr.transpose();
    const auto coo = partition::PartitionedCoo::build(csr, csc, parts);
    benchmark::DoNotOptimize(coo.all_edges().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(el.num_edges()));
}
BENCHMARK(BM_BuildLayouts)->Arg(1)->Arg(4)->UseRealTime();

// ------------------------------------------------------------------ audit ---

void print_u64_array(const std::vector<std::uint64_t>& v) {
  std::printf("[");
  for (std::size_t i = 0; i < v.size(); ++i)
    std::printf("%s%llu", i ? "," : "",
                static_cast<unsigned long long>(v[i]));
  std::printf("]");
}

/// PageRank-style iterations on the engine: per-iteration allocation counts
/// and the mean steady-state (iteration ≥ 2) edge_map time.
void audit_pagerank(engine::Engine& eng, int iters,
                    std::vector<std::uint64_t>& per_iter_allocs,
                    double& steady_ms) {
  const auto& g = eng.graph();
  const vid_t n = g.num_vertices();
  std::vector<double> acc(n, 0.0);
  std::vector<double> x(n, 1.0);
  Frontier all = Frontier::all(n, &g.csr());
  double steady_seconds = 0.0;
  int steady_iters = 0;
  for (int it = 0; it < iters; ++it) {
    const std::uint64_t before = allocs_now();
    Timer t;
    Frontier next = eng.edge_map(all, AccumOp{acc.data(), x.data()});
    eng.recycle(next);
    const double secs = t.seconds();
    per_iter_allocs.push_back(allocs_now() - before);
    if (it >= 1) {  // iteration ≥ 2, 1-indexed
      steady_seconds += secs;
      ++steady_iters;
    }
  }
  steady_ms = steady_iters > 0 ? steady_seconds / steady_iters * 1e3 : 0.0;
}

/// Two BFS runs on one engine; the second run's per-round allocation counts
/// are the steady-state numbers (pools warm from run 1).
void audit_bfs(engine::Engine& eng, vid_t source,
               std::vector<std::uint64_t>& per_round_allocs,
               double& total_ms) {
  const auto& g = eng.graph();
  const vid_t n = g.num_vertices();
  // This audit drives edge_map with raw frontiers, below the algorithm
  // boundary where ID translation normally happens — so translate the
  // original-space source here (identity under the default build).
  source = g.to_internal(source);
  auto run = [&](bool record) {
    std::vector<vid_t> parent(n, kInvalidVertex);
    std::vector<std::int64_t> level(n, -1);
    parent[source] = source;
    level[source] = 0;
    Frontier f = Frontier::single(n, source, &g.csr());
    Timer t;
    for (std::int64_t depth = 1; !f.empty(); ++depth) {
      const std::uint64_t before = allocs_now();
      Frontier next = eng.edge_map(
          f, algorithms::detail::BfsOp{parent.data(), level.data(), depth});
      if (record) per_round_allocs.push_back(allocs_now() - before);
      eng.recycle(f);
      f = std::move(next);
    }
    eng.recycle(f);
    return t.seconds();
  };
  run(/*record=*/false);  // warm the pools
  total_ms = run(/*record=*/true) * 1e3;
}

/// PageRank-delta on one engine, the algorithm's own loop
/// (algorithms/pagerank_delta.hpp), run twice: the second run's per-round
/// allocation counts of the edge_map plus the vertex_map that filters
/// significant receivers are the steady-state numbers (pools warm from run
/// 1, which met every regime — dense, medium, sparse — once already).
void audit_pagerank_delta(engine::Engine& eng,
                          std::vector<std::uint64_t>& per_round_allocs) {
  const auto& g = eng.graph();
  const vid_t n = g.num_vertices();
  const algorithms::PageRankDeltaOptions popts;
  const double inv_n = 1.0 / static_cast<double>(n);
  const double threshold = popts.epsilon * inv_n;
  std::vector<double> delta(n);
  std::vector<double> contrib(n, 0.0);
  std::vector<double> acc(n, 0.0);
  std::vector<unsigned char> claimed(n, 0);
  auto run = [&](bool record) {
    std::fill(delta.begin(), delta.end(), inv_n);
    Frontier frontier = Frontier::all(n, &g.csr());
    for (int round = 0; round < popts.max_rounds && !frontier.empty();
         ++round) {
      const std::uint64_t before = allocs_now();
      eng.vertex_foreach(frontier, [&](vid_t v) {
        const eid_t deg = g.out_degree(v);
        contrib[v] = deg > 0 ? popts.damping * delta[v] /
                                   static_cast<double>(deg)
                             : 0.0;
      });
      Frontier received = eng.edge_map(
          frontier, algorithms::detail::PrDeltaOp{
                        {}, contrib.data(), acc.data(), claimed.data()});
      Frontier next = eng.vertex_map(received, [&](vid_t v) {
        claimed[v] = 0;
        delta[v] = acc[v];
        acc[v] = 0.0;
        return std::fabs(delta[v]) > threshold;
      });
      eng.recycle(frontier);
      eng.recycle(received);
      frontier = std::move(next);
      if (record) per_round_allocs.push_back(allocs_now() - before);
    }
    eng.recycle(frontier);
  };
  run(/*record=*/false);  // warm the pools
  run(/*record=*/true);
}

/// BFS driven through the sparse push alone, whatever the frontier's
/// density, run twice on one workspace: the second run's per-round
/// allocation counts are the steady-state numbers.  Its middle rounds
/// activate more than |V|/64 vertices, so they take the id-ordered output
/// (pooled bitmap + to_sparse), and each retired frontier is recycled.
void audit_sparse_push(const graph::Graph& g, vid_t source,
                       std::vector<std::uint64_t>& per_round_allocs) {
  const vid_t n = g.num_vertices();
  source = g.to_internal(source);
  engine::TraversalWorkspace ws;
  std::vector<vid_t> parent(n);
  std::vector<std::int64_t> level(n);
  auto run = [&](bool record) {
    std::fill(parent.begin(), parent.end(), kInvalidVertex);
    std::fill(level.begin(), level.end(), -1);
    parent[source] = source;
    level[source] = 0;
    Frontier f = Frontier::single(n, source, &g.csr());
    for (std::int64_t depth = 1; !f.empty(); ++depth) {
      const std::uint64_t before = allocs_now();
      algorithms::detail::BfsOp op{parent.data(), level.data(), depth};
      Frontier next = engine::traverse_csr_sparse(g, f, op, nullptr, ws);
      f.into_workspace(ws);
      f = std::move(next);
      if (record) per_round_allocs.push_back(allocs_now() - before);
    }
    f.into_workspace(ws);
  };
  run(/*record=*/false);  // warm the pools
  run(/*record=*/true);
}

void run_steady_state_audit() {
  const auto& g = micro_graph();
  engine::Options opts;
  opts.layout = engine::Layout::kDenseCoo;
  opts.atomics = engine::AtomicsMode::kForceOff;

  engine::Engine pr_eng(g, opts);
  std::vector<std::uint64_t> pr_allocs;
  double pr_steady_ms = 0.0;
  audit_pagerank(pr_eng, /*iters=*/10, pr_allocs, pr_steady_ms);

  engine::Engine bfs_eng(g);  // kAuto: exercises all three regimes
  bfs_eng.set_orientation(engine::Orientation::kVertex);
  std::vector<std::uint64_t> bfs_allocs;
  double bfs_ms = 0.0;
  audit_bfs(bfs_eng, bench::max_out_degree_vertex(g), bfs_allocs, bfs_ms);

  engine::Engine prd_eng(g);  // kAuto: dense, medium and sparse rounds
  std::vector<std::uint64_t> prd_allocs;
  audit_pagerank_delta(prd_eng, prd_allocs);

  std::vector<std::uint64_t> push_allocs;
  audit_sparse_push(g, bench::max_out_degree_vertex(g), push_allocs);

  std::uint64_t pr_steady = 0;
  for (std::size_t i = 1; i < pr_allocs.size(); ++i) pr_steady += pr_allocs[i];
  std::uint64_t bfs_steady = 0;
  for (std::size_t i = 1; i < bfs_allocs.size(); ++i)
    bfs_steady += bfs_allocs[i];
  std::uint64_t prd_steady = 0;
  for (std::size_t i = 1; i < prd_allocs.size(); ++i)
    prd_steady += prd_allocs[i];
  std::uint64_t push_steady = 0;
  for (const std::uint64_t a : push_allocs) push_steady += a;

  std::printf("{\"bench\":\"steady_state_audit\",\"graph\":\"rmat16\","
              "\"vertices\":%llu,\"edges\":%llu,",
              static_cast<unsigned long long>(g.num_vertices()),
              static_cast<unsigned long long>(g.num_edges()));
  std::printf("\"pagerank_coo\":{\"per_iter_allocs\":");
  print_u64_array(pr_allocs);
  std::printf(",\"steady_state_allocs\":%llu,\"steady_iter_ms\":%.3f},",
              static_cast<unsigned long long>(pr_steady), pr_steady_ms);
  std::printf("\"bfs_auto\":{\"per_round_allocs\":");
  print_u64_array(bfs_allocs);
  std::printf(",\"steady_state_allocs\":%llu,\"total_ms\":%.3f},",
              static_cast<unsigned long long>(bfs_steady), bfs_ms);
  std::printf("\"pagerank_delta_auto\":{\"per_round_allocs\":");
  print_u64_array(prd_allocs);
  std::printf(",\"steady_state_allocs\":%llu},",
              static_cast<unsigned long long>(prd_steady));
  std::printf("\"sparse_push\":{\"per_round_allocs\":");
  print_u64_array(push_allocs);
  std::printf(",\"steady_state_allocs\":%llu}}\n",
              static_cast<unsigned long long>(push_steady));
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  run_steady_state_audit();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
