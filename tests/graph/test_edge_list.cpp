#include "graph/edge_list.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "sys/parallel.hpp"

namespace grind::graph {
namespace {

TEST(EdgeList, AddGrowsVertexBound) {
  EdgeList el;
  EXPECT_EQ(el.num_vertices(), 0u);
  el.add(3, 7);
  EXPECT_EQ(el.num_vertices(), 8u);
  EXPECT_EQ(el.num_edges(), 1u);
  el.add(10, 2, 2.5f);
  EXPECT_EQ(el.num_vertices(), 11u);
  EXPECT_FLOAT_EQ(el.edge(1).weight, 2.5f);
}

TEST(EdgeList, RemoveSelfLoops) {
  EdgeList el;
  el.add(0, 0);
  el.add(0, 1);
  el.add(1, 1);
  el.add(1, 0);
  EXPECT_EQ(el.remove_self_loops(), 2u);
  EXPECT_EQ(el.num_edges(), 2u);
  for (const Edge& e : el.edges()) EXPECT_NE(e.src, e.dst);
}

TEST(EdgeList, DeduplicateKeepsOnePerPair) {
  EdgeList el;
  el.add(0, 1, 1.0f);
  el.add(0, 1, 2.0f);
  el.add(1, 0);
  el.add(0, 1, 3.0f);
  EXPECT_EQ(el.deduplicate(), 2u);
  EXPECT_EQ(el.num_edges(), 2u);
}

TEST(EdgeList, SymmetrizeAddsReverseEdges) {
  EdgeList el;
  el.add(0, 1);
  el.add(1, 2);
  el.symmetrize();
  EXPECT_EQ(el.num_edges(), 4u);
  bool has10 = false, has21 = false;
  for (const Edge& e : el.edges()) {
    if (e.src == 1 && e.dst == 0) has10 = true;
    if (e.src == 2 && e.dst == 1) has21 = true;
  }
  EXPECT_TRUE(has10);
  EXPECT_TRUE(has21);
}

TEST(EdgeList, SymmetrizeIsIdempotentOnEdgeCount) {
  EdgeList el = rmat(8, 4, 123);
  el.deduplicate();
  el.symmetrize();
  const eid_t m = el.num_edges();
  el.symmetrize();
  EXPECT_EQ(el.num_edges(), m);
}

TEST(EdgeList, DegreesMatchManualCount) {
  EdgeList el;
  el.add(0, 1);
  el.add(0, 2);
  el.add(2, 1);
  el.set_num_vertices(4);
  const auto out = el.out_degrees();
  const auto in = el.in_degrees();
  EXPECT_EQ(out, (std::vector<eid_t>{2, 0, 1, 0}));
  EXPECT_EQ(in, (std::vector<eid_t>{0, 2, 1, 0}));
  EXPECT_EQ(el.max_degree(), 2u);
}

TEST(EdgeList, SortOrders) {
  EdgeList el;
  el.add(2, 0);
  el.add(0, 2);
  el.add(1, 1);
  el.add(0, 1);
  el.sort_by_source();
  EXPECT_EQ(el.edge(0).src, 0u);
  EXPECT_EQ(el.edge(0).dst, 1u);
  EXPECT_EQ(el.edge(3).src, 2u);
  el.sort_by_destination();
  EXPECT_EQ(el.edge(0).dst, 0u);
  EXPECT_EQ(el.edge(3).dst, 2u);
}

TEST(EdgeList, DeduplicateKeepsFirstWeightAtEveryThreadCount) {
  const EdgeList input = rmat(14, 16, 3);
  // The survivor of each (src, dst) pair is its first occurrence.
  std::map<std::pair<vid_t, vid_t>, std::uint32_t> first;
  for (const Edge& e : input.edges())
    first.emplace(std::pair(e.src, e.dst),
                  std::bit_cast<std::uint32_t>(e.weight));
  ASSERT_LT(first.size(), input.num_edges());
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ThreadCountGuard guard(threads);
    EdgeList el = input;
    EXPECT_EQ(el.deduplicate(), input.num_edges() - first.size());
    ASSERT_EQ(el.num_edges(), first.size());
    std::size_t i = 0, mismatches = 0;
    for (const auto& [pair, weight] : first) {
      const Edge& e = el.edge(i++);
      if (e.src != pair.first || e.dst != pair.second ||
          std::bit_cast<std::uint32_t>(e.weight) != weight)
        ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u);
  }
}

TEST(EdgeList, EmptyOperationsAreSafe) {
  EdgeList el;
  EXPECT_EQ(el.remove_self_loops(), 0u);
  EXPECT_EQ(el.deduplicate(), 0u);
  el.symmetrize();
  EXPECT_TRUE(el.empty());
  EXPECT_EQ(el.max_degree(), 0u);
}

}  // namespace
}  // namespace grind::graph
