#include "engine/vertex_map.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "engine/engine.hpp"
#include "graph/generators.hpp"
#include "sys/parallel.hpp"

namespace grind::engine {
namespace {

using graph::Graph;

TEST(VertexMap, FiltersActiveVerticesSparse) {
  const Graph g = Graph::build(graph::rmat(8, 4, 3));
  Frontier f = Frontier::from_vertices(g.num_vertices(), {2, 3, 4, 5, 6});
  TraversalWorkspace ws;
  Frontier out = vertex_map(g, f, [](vid_t v) { return v % 2 == 0; }, ws);
  EXPECT_EQ(out.num_active(), 3u);
  EXPECT_TRUE(out.contains(2));
  EXPECT_FALSE(out.contains(3));
  EXPECT_FALSE(out.is_dense());  // representation preserved
}

TEST(VertexMap, FiltersActiveVerticesDense) {
  const Graph g = Graph::build(graph::rmat(8, 4, 3));
  Frontier f = Frontier::all(g.num_vertices(), &g.csr());
  TraversalWorkspace ws;
  Frontier out = vertex_map(g, f, [](vid_t v) { return v < 10; }, ws);
  EXPECT_EQ(out.num_active(), 10u);
  EXPECT_TRUE(out.is_dense());
  EXPECT_TRUE(out.contains(9));
  EXPECT_FALSE(out.contains(10));
}

TEST(VertexMap, OutputCarriesDegreeStatistics) {
  const Graph g = Graph::build(graph::star(100));
  Frontier f = Frontier::all(g.num_vertices(), &g.csr());
  TraversalWorkspace ws;
  Frontier out = vertex_map(g, f, [](vid_t v) { return v == 0; }, ws);
  EXPECT_EQ(out.num_active(), 1u);
  EXPECT_EQ(out.active_out_degree(), 99u);  // the hub's degree
}

TEST(VertexMap, SparseOutputStatisticsMatchRecount) {
  // The sparse branch sums |F| and Σ deg⁺ in its per-thread slots instead
  // of recounting; both must equal a recount at every thread count.
  const Graph g = Graph::build(graph::rmat(12, 8, 7));
  const vid_t n = g.num_vertices();
  std::vector<vid_t> verts;
  for (vid_t v = 0; v < n; v += 2) verts.push_back(v);
  for (const int threads : {1, 4}) {
    ThreadCountGuard guard(threads);
    TraversalWorkspace ws;
    const Frontier f = Frontier::from_vertices(n, verts, &g.csr());
    Frontier out = vertex_map(g, f, [](vid_t v) { return v % 3 != 0; }, ws);
    EXPECT_FALSE(out.is_dense());
    const vid_t active = out.num_active();
    const eid_t degree = out.active_out_degree();
    out.recount(&g.csr());
    EXPECT_EQ(active, out.num_active()) << "threads=" << threads;
    EXPECT_EQ(degree, out.active_out_degree()) << "threads=" << threads;
  }
}

TEST(VertexMap, OutputStorageComesFromTheWorkspacePools) {
  const Graph g = Graph::build(graph::rmat(10, 4, 3));
  const vid_t n = g.num_vertices();
  TraversalWorkspace ws;
  Frontier all = Frontier::all(n, &g.csr());

  // Dense branch: a recycled bitmap is reused for the output.
  Frontier first = vertex_map(g, all, [](vid_t v) { return v % 2 == 0; }, ws);
  const std::uint64_t* words = first.bitmap().words();
  first.into_workspace(ws);
  Frontier second = vertex_map(g, all, [](vid_t v) { return v % 5 == 0; }, ws);
  EXPECT_EQ(second.bitmap().words(), words);
  EXPECT_EQ(second.num_active(), (n + 4) / 5);

  // Sparse branch: a recycled list is reused for the output.
  Frontier list = Frontier::from_vertices(n, {1, 2, 3, 4});
  Frontier a = vertex_map(g, list, [](vid_t) { return true; }, ws);
  const vid_t* data = a.vertices().data();
  a.into_workspace(ws);
  Frontier b = vertex_map(g, list, [](vid_t v) { return v > 2; }, ws);
  EXPECT_EQ(b.vertices().data(), data);
  EXPECT_EQ(b.num_active(), 2u);
}

TEST(VertexForeach, VisitsEachActiveVertexOnce) {
  const Graph g = Graph::build(graph::rmat(8, 4, 3));
  const vid_t n = g.num_vertices();
  Frontier f = Frontier::all(n, &g.csr());
  std::vector<std::atomic<int>> hits(n);
  vertex_foreach(f, [&](vid_t v) {
    hits[v].fetch_add(1, std::memory_order_relaxed);
  });
  for (vid_t v = 0; v < n; ++v) ASSERT_EQ(hits[v].load(), 1);
}

TEST(VertexForeach, SparseVisitsListOnly) {
  Frontier f = Frontier::from_vertices(1000, {7, 8, 9});
  std::atomic<int> count{0};
  vertex_foreach(f, [&](vid_t v) {
    EXPECT_GE(v, 7u);
    EXPECT_LE(v, 9u);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 3);
}

TEST(VertexForeachAll, CoversAllVertices) {
  std::vector<std::atomic<int>> hits(5000);
  vertex_foreach_all(5000, [&](vid_t v) {
    hits[v].fetch_add(1, std::memory_order_relaxed);
  });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(VertexMap, EngineFacadeDelegates) {
  const Graph g = Graph::build(graph::rmat(8, 4, 3));
  Engine eng(g);
  Frontier f = Frontier::from_vertices(g.num_vertices(), {1, 2});
  Frontier out = eng.vertex_map(f, [](vid_t v) { return v == 1; });
  EXPECT_EQ(out.num_active(), 1u);
  int visits = 0;
  eng.vertex_foreach(f, [&](vid_t) {
#pragma omp atomic
    ++visits;
  });
  EXPECT_EQ(visits, 2);
}

}  // namespace
}  // namespace grind::engine
