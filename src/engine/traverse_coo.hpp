// Dense traversal over the partitioned COO layout (Algorithm 2, line 2).
//
// Every edge is visited exactly once regardless of vertex replication
// (§II-F), and the per-partition edge order (source / destination / Hilbert)
// controls memory locality (§IV-C).
//
// Two variants reproduce the "+na" / "+a" configurations of Figs 5–6:
//   * no-atomics: one task per partition.  Partitioning-by-destination makes
//     every partition's update set disjoint, and 64-vertex-aligned partition
//     boundaries keep next-frontier bitmap words single-writer, so plain
//     loads/stores suffice (§III-C).  A partitioning built with a smaller
//     alignment sets next-frontier bits atomically instead.
//   * atomics: each partition's edge range is split into fixed-size chunks
//     (providing intra-partition parallelism when P < threads); chunks of
//     the same partition may update a destination concurrently, requiring
//     op.update_atomic and atomic bitmap sets.  Once partitions shrink to a
//     single chunk (high P) the atomics are contention-free and the +a/+na
//     gap collapses to the bare instruction overhead — the 6.1–23.7 %
//     window the paper reports at 48 partitions (§IV-A).
//
// Both variants schedule their work items domain-affinely (domain_sched.hpp):
// a partition (or chunk) is processed by a thread of the NUMA domain that
// stores its edges, with gated stealing for load balance (§III-D).
#pragma once

#include <cstdint>
#include <span>

#include "engine/domain_sched.hpp"
#include "engine/operators.hpp"
#include "engine/workspace.hpp"
#include "frontier/frontier.hpp"
#include "graph/graph.hpp"
#include "sys/bitmap.hpp"
#include "sys/cancel.hpp"
#include "sys/parallel.hpp"

namespace grind::engine {

/// Apply the operator over one work item's edges, in their stored order,
/// marking each destination an update activates.  The operator, the input
/// frontier's words and the setter arrive by value: they are the item's
/// private copies, which the loop keeps in registers.  Reached through the
/// kernel's shared references instead, they are loaded on every active
/// edge: the compiler does not hoist loads only some edges execute, and a
/// claim flag stored through `unsigned char*` may alias anything
/// (docs/ENGINE.md, "Kernel inner loops").  Atomic selects update_atomic,
/// for chunks that share a partition's destinations.
template <bool Atomic, EdgeOperator Op, typename Mark>
void coo_apply(std::span<const Edge> es, const std::uint64_t* in_words,
               Op local, Mark mark) {
  for (const Edge& e : es) {
    if (!test_bit(in_words, e.src) || !local.cond(e.dst)) continue;
    const bool activated = Atomic
                               ? local.update_atomic(e.src, e.dst, e.weight)
                               : local.update(e.src, e.dst, e.weight);
    if (activated) mark(e.dst);
  }
}

/// `cancel`, when non-null, is polled once per partition/chunk: a fired token
/// makes remaining work items return immediately (the sweep "drains").  The
/// body never throws — affine_for bodies run inside an OpenMP region — so
/// the caller (edge_map) must re-check the token after the sweep and discard
/// the partial frontier.
template <EdgeOperator Op>
Frontier traverse_coo(const graph::Graph& g, Frontier& f, Op& op,
                      bool use_atomics, eid_t* edges_examined,
                      TraversalWorkspace& ws,
                      AffineCounts* affinity = nullptr,
                      const sys::CancelToken* cancel = nullptr) {
  f.to_dense(ws);
  const auto& coo = g.coo();
  const NumaModel& numa = g.numa();
  DomainScheduleCache& sched = ws.domain_schedules();
  const Bitmap& in = f.bitmap();
  Bitmap next = ws.acquire_bitmap(g.num_vertices());

  if (edges_examined != nullptr) *edges_examined = coo.num_edges();

  AffineCounts counts;
  const part_t np = coo.num_partitions();
  if (!use_atomics) {
    counts = with_bit_setter(
        next, !g.partitioning_edges().word_aligned(), [&](auto mark) {
          return affine_for(
              numa, /*owner=*/&g, /*token=*/&coo, np, sched,
              [&](std::size_t p) {
                return numa.domain_of_partition(static_cast<part_t>(p), np);
              },
              [&](std::size_t p) {
                if (cancel != nullptr && cancel->should_stop())
                  return std::uint64_t{0};
                const auto es = coo.edges(static_cast<part_t>(p));
                coo_apply</*Atomic=*/false>(es, in.words(), op, mark);
                return static_cast<std::uint64_t>(es.size());
              });
        });
  } else {
    // (partition, edge sub-range) work items, cached at layout build time;
    // a chunk's domain is its owning partition's domain.
    const auto& items = coo.chunks();
    counts = affine_for(
        numa, /*owner=*/&g, /*token=*/&items, items.size(), sched,
        [&](std::size_t w) {
          return numa.domain_of_partition(items[w].part, np);
        },
        [&](std::size_t w) {
          if (cancel != nullptr && cancel->should_stop()) return std::uint64_t{0};
          const partition::CooChunk& it = items[w];
          const auto es =
              coo.edges(it.part).subspan(it.begin, it.end - it.begin);
          coo_apply</*Atomic=*/true>(es, in.words(), op,
                                     BitSetter<true>{next.words()});
          return static_cast<std::uint64_t>(es.size());
        });
  }
  if (affinity != nullptr) affinity->merge(counts);

  Frontier out = Frontier::from_bitmap(std::move(next));
  out.recount(&g.csr());
  return out;
}

}  // namespace grind::engine
