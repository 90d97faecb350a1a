#include "partition/partitioned_coo.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <tuple>

#include "graph/generators.hpp"
#include "partition/hilbert.hpp"

namespace grind::partition {
namespace {

using graph::EdgeList;

class CooSweep : public ::testing::TestWithParam<std::tuple<part_t, EdgeOrder>> {
};

TEST_P(CooSweep, PreservesEdgeMultisetAndOwnership) {
  const auto [p, order] = GetParam();
  const EdgeList el = graph::rmat(10, 8, 31);
  const Partitioning parts = make_partitioning(el, p);
  const PartitionedCoo coo = PartitionedCoo::build(el, parts, order);

  ASSERT_EQ(coo.num_partitions(), p);
  ASSERT_EQ(coo.num_edges(), el.num_edges());

  std::multiset<std::tuple<vid_t, vid_t>> want, got;
  for (const Edge& e : el.edges()) want.emplace(e.src, e.dst);
  for (part_t i = 0; i < p; ++i) {
    for (const Edge& e : coo.edges(i)) {
      got.emplace(e.src, e.dst);
      // Ownership: destination's home is this partition.
      ASSERT_TRUE(parts.range(i).contains(e.dst));
    }
  }
  EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(
    CountsAndOrders, CooSweep,
    ::testing::Combine(::testing::Values<part_t>(1, 4, 16, 64),
                       ::testing::Values(EdgeOrder::kSource,
                                         EdgeOrder::kDestination,
                                         EdgeOrder::kHilbert)),
    [](const auto& info) {
      const EdgeOrder o = std::get<1>(info.param);
      const char* name = o == EdgeOrder::kSource ? "src"
                         : o == EdgeOrder::kDestination ? "dst"
                                                        : "hilbert";
      return "p" + std::to_string(std::get<0>(info.param)) + "_" + name;
    });

TEST(PartitionedCoo, SourceOrderSortedWithinPartition) {
  const EdgeList el = graph::rmat(9, 6, 7);
  const Partitioning parts = make_partitioning(el, 8);
  const PartitionedCoo coo =
      PartitionedCoo::build(el, parts, EdgeOrder::kSource);
  for (part_t p = 0; p < 8; ++p) {
    const auto es = coo.edges(p);
    for (std::size_t i = 1; i < es.size(); ++i) {
      ASSERT_TRUE(es[i - 1].src < es[i].src ||
                  (es[i - 1].src == es[i].src && es[i - 1].dst <= es[i].dst));
    }
  }
}

TEST(PartitionedCoo, DestinationOrderSortedWithinPartition) {
  const EdgeList el = graph::rmat(9, 6, 7);
  const Partitioning parts = make_partitioning(el, 8);
  const PartitionedCoo coo =
      PartitionedCoo::build(el, parts, EdgeOrder::kDestination);
  for (part_t p = 0; p < 8; ++p) {
    const auto es = coo.edges(p);
    for (std::size_t i = 1; i < es.size(); ++i)
      ASSERT_LE(es[i - 1].dst, es[i].dst);
  }
}

TEST(PartitionedCoo, HilbertOrderSortedByHilbertKey) {
  const EdgeList el = graph::rmat(9, 6, 7);
  const Partitioning parts = make_partitioning(el, 8);
  const PartitionedCoo coo =
      PartitionedCoo::build(el, parts, EdgeOrder::kHilbert);
  const auto order = hilbert_order_for(el.num_vertices());
  for (part_t p = 0; p < 8; ++p) {
    const auto es = coo.edges(p);
    for (std::size_t i = 1; i < es.size(); ++i)
      ASSERT_LE(hilbert_edge_key(order, es[i - 1]),
                hilbert_edge_key(order, es[i]));
  }
}

TEST(PartitionedCoo, StorageIndependentOfPartitionCount) {
  const EdgeList el = graph::rmat(10, 8, 3);
  const auto p4 = PartitionedCoo::build(el, make_partitioning(el, 4));
  const auto p64 = PartitionedCoo::build(el, make_partitioning(el, 64));
  EXPECT_EQ(p4.storage_bytes_unweighted(), p64.storage_bytes_unweighted());
  EXPECT_EQ(p4.storage_bytes_unweighted(),
            2 * el.num_edges() * kBytesPerVertexId);
}

TEST(PartitionedCoo, WeightsSurviveBucketingAndSorting) {
  EdgeList el;
  el.add(0, 1, 1.5f);
  el.add(2, 3, 2.5f);
  el.add(1, 3, 3.5f);
  el.set_num_vertices(4);
  PartitionOptions opts;
  opts.boundary_align = 1;
  const Partitioning parts = make_partitioning(el, 2, opts);
  const PartitionedCoo coo = PartitionedCoo::build(el, parts);
  float sum = 0.0f;
  for (const Edge& e : coo.all_edges()) sum += e.weight;
  EXPECT_FLOAT_EQ(sum, 7.5f);
}

TEST(PartitionedCoo, DestinationOutsidePartitioningThrows) {
  EdgeList small;
  small.add(0, 1);
  small.add(2, 3);
  PartitionOptions opts;
  opts.boundary_align = 1;
  const Partitioning parts = make_partitioning(small, 2, opts);
  EdgeList el = small;
  el.add(1, 6);
  for (EdgeOrder order : {EdgeOrder::kSource, EdgeOrder::kDestination,
                          EdgeOrder::kHilbert})
    EXPECT_THROW(PartitionedCoo::build(el, parts, order), std::out_of_range);
}

}  // namespace
}  // namespace grind::partition
