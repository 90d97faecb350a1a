// Property suite for layout construction: every array of the CSR, the CSC
// and the partitioned COO a GraphBuilder produces must equal, bit for bit, a
// reference built here from std::stable_sort over edge indices — at every
// thread count, COO order, partition count and boundary alignment.  The
// references pin the parallel-edge contract: repeated (src, dst) pairs keep
// their edge-list order in all three layouts.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "partition/hilbert.hpp"
#include "partition/partitioned_coo.hpp"
#include "sys/parallel.hpp"

namespace grind::graph {
namespace {

using partition::EdgeOrder;

/// A weight as its bit pattern, so comparisons are bit for bit.
std::uint32_t bits(weight_t w) { return std::bit_cast<std::uint32_t>(w); }

std::vector<std::uint32_t> bits(std::span<const weight_t> ws) {
  std::vector<std::uint32_t> out;
  for (weight_t w : ws) out.push_back(bits(w));
  return out;
}

/// Edge-list indices sorted stably by `key`.
template <typename Key>
std::vector<eid_t> stable_order(const EdgeList& el, Key key) {
  std::vector<eid_t> idx(el.num_edges());
  std::iota(idx.begin(), idx.end(), eid_t{0});
  std::stable_sort(idx.begin(), idx.end(), [&](eid_t a, eid_t b) {
    return key(el.edge(a)) < key(el.edge(b));
  });
  return idx;
}

struct RefIndex {
  std::vector<eid_t> offsets;
  std::vector<vid_t> neighbors;
  std::vector<std::uint32_t> weights;
};

/// CSR (out) or CSC (in) of `el`: edges stably sorted by (row, neighbor).
RefIndex ref_index(const EdgeList& el, bool out) {
  const auto row = [out](const Edge& e) { return out ? e.src : e.dst; };
  const auto col = [out](const Edge& e) { return out ? e.dst : e.src; };
  RefIndex r;
  r.offsets.assign(static_cast<std::size_t>(el.num_vertices()) + 1, 0);
  for (eid_t i : stable_order(el, [&](const Edge& e) {
         return std::pair(row(e), col(e));
       })) {
    const Edge& e = el.edge(i);
    ++r.offsets[row(e) + 1];
    r.neighbors.push_back(col(e));
    r.weights.push_back(bits(e.weight));
  }
  std::partial_sum(r.offsets.begin(), r.offsets.end(), r.offsets.begin());
  return r;
}

void expect_index_eq(const Csr& got, const RefIndex& want) {
  EXPECT_TRUE(std::ranges::equal(got.offsets(), want.offsets));
  EXPECT_TRUE(std::ranges::equal(got.neighbors(), want.neighbors));
  EXPECT_EQ(bits(got.weights()), want.weights);
}

struct RefCoo {
  std::vector<eid_t> offsets;
  std::vector<Edge> edges;
};

/// The partitioned COO of `el`: edges stably sorted by (home partition of
/// the destination, key of `order`).
RefCoo ref_coo(const EdgeList& el, const partition::Partitioning& parts,
               EdgeOrder order) {
  const std::uint32_t horder =
      partition::hilbert_order_for(parts.num_vertices());
  using Key = std::tuple<part_t, std::uint64_t, std::uint64_t>;
  std::vector<Key> keys;
  RefCoo r;
  r.offsets.assign(parts.num_partitions() + 1, 0);
  for (const Edge& e : el.edges()) {
    const part_t p = parts.partition_of(e.dst);
    ++r.offsets[p + 1];
    keys.push_back(order == EdgeOrder::kSource ? Key(p, e.src, e.dst)
                   : order == EdgeOrder::kDestination
                       ? Key(p, e.dst, e.src)
                       : Key(p, partition::hilbert_edge_key(horder, e), 0));
  }
  std::partial_sum(r.offsets.begin(), r.offsets.end(), r.offsets.begin());
  std::vector<eid_t> idx(el.num_edges());
  std::iota(idx.begin(), idx.end(), eid_t{0});
  std::stable_sort(idx.begin(), idx.end(),
                   [&](eid_t a, eid_t b) { return keys[a] < keys[b]; });
  for (eid_t i : idx) r.edges.push_back(el.edge(i));
  return r;
}

void expect_coo_eq(const partition::PartitionedCoo& got, const RefCoo& want) {
  EXPECT_TRUE(std::ranges::equal(got.offsets(), want.offsets));
  EXPECT_TRUE(std::ranges::equal(
      got.all_edges(), want.edges, [](const Edge& a, const Edge& b) {
        return a.src == b.src && a.dst == b.dst &&
               bits(a.weight) == bits(b.weight);
      }));
}

const char* order_name(EdgeOrder o) {
  return o == EdgeOrder::kSource        ? "source"
         : o == EdgeOrder::kDestination ? "destination"
                                        : "hilbert";
}

/// The whole grid on one input graph.
void check_every_layout(const EdgeList& input) {
  const RefIndex csr = ref_index(input, true);
  const RefIndex csc = ref_index(input, false);
  for (part_t p : {part_t{1}, part_t{3}, part_t{0}}) {
    for (vid_t align : {vid_t{1}, vid_t{64}}) {
      for (EdgeOrder order : {EdgeOrder::kSource, EdgeOrder::kDestination,
                              EdgeOrder::kHilbert}) {
        // Auto P may follow the thread count; the reference COO is rebuilt
        // on the first run and whenever the partition ranges change.
        std::vector<VertexRange> ranges;
        RefCoo coo;
        for (int threads : {1, 2, 4}) {
          SCOPED_TRACE("threads " + std::to_string(threads) + " P " +
                       (p == 0 ? std::string("auto") : std::to_string(p)) +
                       " align " + std::to_string(align) + " order " +
                       order_name(order));
          ThreadCountGuard guard(threads);
          BuildOptions opts;
          opts.num_partitions = p;
          opts.boundary_align = align;
          opts.coo_order = order;
          const Graph g = Graph::build(input, opts);
          // The contiguous partitioner keeps the input's vertex IDs, so the
          // references describe this graph.
          ASSERT_TRUE(
              std::ranges::equal(g.edge_list().edges(), input.edges()));
          const partition::Partitioning& parts = g.partitioning_edges();
          if (threads == 1 || parts.ranges() != ranges) {
            ranges = parts.ranges();
            coo = ref_coo(input, parts, order);
          }
          expect_index_eq(g.csr(), csr);
          expect_index_eq(g.csc(), csc);
          expect_coo_eq(g.coo(), coo);
          // The edge-list overload is the same single path.
          expect_coo_eq(partition::PartitionedCoo::build(input, parts, order),
                        coo);
        }
      }
    }
  }
}

std::size_t parallel_edge_count(const EdgeList& el) {
  std::set<std::pair<vid_t, vid_t>> pairs;
  for (const Edge& e : el.edges()) pairs.emplace(e.src, e.dst);
  return el.num_edges() - pairs.size();
}

/// Vertex 0 has 100 parallel edges to vertex 5 with shuffled weights,
/// interleaved with edges to 60 other vertices (degree 160, well past the
/// insertion-sort rows), and vertex 5 has 40 parallel edges back.
EdgeList shuffled_hub() {
  std::vector<Edge> edges;
  for (vid_t i = 0; i < 100; ++i)
    edges.push_back({0, 5, static_cast<weight_t>(i) + 0.5f});
  for (vid_t v = 6; v < 66; ++v)
    edges.push_back({0, v, static_cast<weight_t>(v) * 0.25f});
  for (vid_t i = 0; i < 40; ++i)
    edges.push_back({5, 0, static_cast<weight_t>(i) + 0.75f});
  for (vid_t v = 6; v < 66; ++v) edges.push_back({v, (v * 7) % 66, 1.0f});
  std::mt19937 rng(11);
  std::shuffle(edges.begin(), edges.end(), rng);
  return EdgeList(66, std::move(edges));
}

EdgeList trailing_isolated() {
  EdgeList el = rmat(8, 8, 2);
  el.set_num_vertices(el.num_vertices() + 100);
  return el;
}

TEST(LayoutBuild, RmatWithParallelEdgesMatchesStableReference) {
  const EdgeList el = rmat(12, 16, 5);
  ASSERT_GT(parallel_edge_count(el), 0u);
  check_every_layout(el);
}

TEST(LayoutBuild, LatticeMatchesStableReference) {
  check_every_layout(road_lattice(40, 40, 0.05, 3));
}

TEST(LayoutBuild, EmptyGraphMatchesStableReference) {
  check_every_layout(EdgeList{});
}

TEST(LayoutBuild, TrailingIsolatedVerticesMatchStableReference) {
  check_every_layout(trailing_isolated());
}

TEST(LayoutBuild, ShuffledHubParallelEdgesMatchStableReference) {
  check_every_layout(shuffled_hub());
}

TEST(LayoutBuild, TransposeMatchesDirectBuildAndRoundTrips) {
  for (const EdgeList& el :
       {rmat(12, 16, 5), road_lattice(40, 40, 0.05, 3), EdgeList{},
        trailing_isolated(), shuffled_hub()}) {
    for (int threads : {1, 2, 4}) {
      ThreadCountGuard guard(threads);
      const Csr csr = Csr::build(el, Adjacency::kOut);
      const Csr csc = Csr::build(el, Adjacency::kIn);
      EXPECT_EQ(csr.transpose(), csc);
      EXPECT_EQ(csc.transpose(), csr);
      EXPECT_EQ(csr.transpose().transpose(), csr);
    }
  }
}

}  // namespace
}  // namespace grind::graph
