#include "frontier/frontier.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "engine/workspace.hpp"
#include "graph/generators.hpp"
#include "sys/parallel.hpp"

namespace grind {
namespace {

using graph::Adjacency;
using graph::Csr;

TEST(Frontier, EmptyFrontier) {
  const Frontier f = Frontier::empty(100);
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.num_active(), 0u);
  EXPECT_EQ(f.traversal_weight(), 0u);
  EXPECT_FALSE(f.is_dense());
}

TEST(Frontier, SingleVertexTracksDegree) {
  const auto el = graph::star(10);  // vertex 0 has out-degree 9
  const Csr out = Csr::build(el, Adjacency::kOut);
  const Frontier f = Frontier::single(10, 0, &out);
  EXPECT_EQ(f.num_active(), 1u);
  EXPECT_EQ(f.active_out_degree(), 9u);
  EXPECT_EQ(f.traversal_weight(), 10u);
  EXPECT_TRUE(f.contains(0));
  EXPECT_FALSE(f.contains(1));
}

TEST(Frontier, AllVerticesWeightIsVPlusE) {
  const auto el = graph::rmat(8, 4, 3);
  const Csr out = Csr::build(el, Adjacency::kOut);
  const Frontier f = Frontier::all(el.num_vertices(), &out);
  EXPECT_TRUE(f.is_dense());
  EXPECT_EQ(f.num_active(), el.num_vertices());
  EXPECT_EQ(f.active_out_degree(), el.num_edges());
  EXPECT_EQ(f.traversal_weight(),
            static_cast<eid_t>(el.num_vertices()) + el.num_edges());
}

TEST(Frontier, SparseToDenseAndBackPreservesContent) {
  engine::TraversalWorkspace ws;
  const auto el = graph::rmat(8, 4, 3);
  const Csr out = Csr::build(el, Adjacency::kOut);
  Frontier f = Frontier::from_vertices(256, {3, 77, 100, 255}, &out);
  const eid_t weight = f.traversal_weight();
  f.to_dense(ws);
  EXPECT_TRUE(f.is_dense());
  EXPECT_TRUE(f.contains(77));
  EXPECT_FALSE(f.contains(78));
  EXPECT_EQ(f.num_active(), 4u);
  f.to_sparse(ws);
  EXPECT_FALSE(f.is_dense());
  const auto verts = f.vertices();
  EXPECT_EQ(std::vector<vid_t>(verts.begin(), verts.end()),
            (std::vector<vid_t>{3, 77, 100, 255}));
  f.recount(&out);
  EXPECT_EQ(f.traversal_weight(), weight);
}

TEST(Frontier, RecountMatchesManualSum) {
  engine::TraversalWorkspace ws;
  const auto el = graph::rmat(9, 6, 5);
  const Csr out = Csr::build(el, Adjacency::kOut);
  std::vector<vid_t> verts = {1, 5, 9, 200, 400};
  eid_t want = 0;
  for (vid_t v : verts) want += out.degree(v);
  Frontier f = Frontier::from_vertices(el.num_vertices(), verts, &out);
  EXPECT_EQ(f.active_out_degree(), want);
  f.to_dense(ws);
  EXPECT_EQ(f.degree_sum(out), want);
  f.recount(&out);
  EXPECT_EQ(f.active_out_degree(), want);
  EXPECT_EQ(f.num_active(), 5u);
}

TEST(Frontier, FromBitmapCountsBits) {
  Bitmap b(1000);
  b.set(1);
  b.set(999);
  const Frontier f = Frontier::from_bitmap(std::move(b));
  EXPECT_EQ(f.num_active(), 2u);
  EXPECT_TRUE(f.contains(999));
}

TEST(Frontier, ToSparseOnLargeDenseFrontier) {
  engine::TraversalWorkspace ws;
  const vid_t n = 100000;
  Bitmap b(n);
  std::vector<vid_t> want;
  for (vid_t v = 0; v < n; v += 7) {
    b.set(v);
    want.push_back(v);
  }
  Frontier f = Frontier::from_bitmap(std::move(b));
  f.to_sparse(ws);
  const auto verts = f.vertices();
  ASSERT_EQ(verts.size(), want.size());
  EXPECT_TRUE(std::equal(verts.begin(), verts.end(), want.begin()));
}

TEST(Frontier, ToSparseParallelMatchesSerial) {
  // Over 2 048 words (2 048·64 vertices) the scan is cut into one block per
  // thread; the odd tail word and the uneven bit pattern put set bits on
  // every block boundary.
  const vid_t n = 2048 * 64 * 3 + 45;
  std::vector<vid_t> want;
  for (vid_t v = 0; v < n; ++v)
    if (v % 3 == 0 || v % 64 == 63 || (v / 4096) % 5 == 1) want.push_back(v);
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    ThreadCountGuard guard(threads);
    engine::TraversalWorkspace ws;
    Bitmap b(n);
    for (const vid_t v : want) b.set(v);
    Frontier f = Frontier::from_bitmap(std::move(b));
    f.to_sparse(ws);
    EXPECT_FALSE(f.is_dense());
    EXPECT_EQ(f.num_active(), want.size());
    const auto verts = f.vertices();
    ASSERT_EQ(verts.size(), want.size());
    EXPECT_TRUE(std::equal(verts.begin(), verts.end(), want.begin()));
  }
}

TEST(Frontier, ForEachVisitsActiveOnly) {
  engine::TraversalWorkspace ws;
  Frontier f = Frontier::from_vertices(64, {2, 4, 8});
  std::vector<vid_t> got;
  f.for_each([&](vid_t v) { got.push_back(v); });
  EXPECT_EQ(got, (std::vector<vid_t>{2, 4, 8}));
  f.to_dense(ws);
  got.clear();
  f.for_each([&](vid_t v) { got.push_back(v); });
  EXPECT_EQ(got, (std::vector<vid_t>{2, 4, 8}));
}

TEST(Frontier, ConversionIsIdempotent) {
  engine::TraversalWorkspace ws;
  Frontier f = Frontier::from_vertices(64, {1});
  f.to_sparse(ws);  // no-op
  EXPECT_FALSE(f.is_dense());
  f.to_dense(ws);
  f.to_dense(ws);  // no-op
  EXPECT_TRUE(f.is_dense());
  EXPECT_EQ(f.num_active(), 1u);
}

}  // namespace
}  // namespace grind
