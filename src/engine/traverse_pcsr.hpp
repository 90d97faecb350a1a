// Dense forward traversal over the partitioned pruned CSR — the Fig 5/6
// "CSR" configurations.
//
// Each partition indexes its in-edges grouped by source; a source with edges
// into k partitions is visited k times, so traversal work grows with the
// replication factor (§II-F) — the effect Fig 6 measures as the slowdown of
// partitioned CSR at high partition counts.
//
//   * no-atomics ("CSR+na"): one task per partition; destination sets are
//     disjoint by partitioning-by-destination.  Only admissible when every
//     partition is single-threaded (P ≥ threads), as in Fig 6.  Bitmap
//     words stay single-writer when boundaries are word-aligned; otherwise
//     next-frontier bits are set atomically.
//   * atomics ("CSR+a"): local sources are chunked across all partitions to
//     create intra-partition parallelism; two chunks of the same partition
//     may update one destination concurrently, requiring atomics (§IV-A:
//     "They are unavoidable when using CSR due to partitioning by
//     destination").
#pragma once

#include <algorithm>
#include <vector>

#include "engine/domain_sched.hpp"
#include "engine/operators.hpp"
#include "engine/workspace.hpp"
#include "frontier/frontier.hpp"
#include "graph/graph.hpp"
#include "partition/partitioned_csr.hpp"
#include "sys/bitmap.hpp"
#include "sys/cancel.hpp"
#include "sys/parallel.hpp"

namespace grind::engine {

template <EdgeOperator Op>
Frontier traverse_partitioned_csr(const graph::Graph& g, Frontier& f, Op& op,
                                  bool use_atomics, eid_t* edges_examined,
                                  TraversalWorkspace& ws,
                                  AffineCounts* affinity = nullptr,
                                  const sys::CancelToken* cancel = nullptr) {
  f.to_dense(ws);
  const auto& pc = g.partitioned_csr();
  const NumaModel& numa = g.numa();
  DomainScheduleCache& sched = ws.domain_schedules();
  const Bitmap& in = f.bitmap();
  Bitmap next = ws.acquire_bitmap(g.num_vertices());
  const part_t np = pc.num_partitions();

  if (edges_examined != nullptr) {
    eid_t total = 0;
    for (part_t p = 0; p < np; ++p) total += pc.part(p).num_edges();
    *edges_examined = total;
  }

  AffineCounts counts;
  if (!use_atomics) {
    counts = with_bit_setter(
        next, !g.partitioning_edges().word_aligned(), [&](auto mark) {
          return affine_for(
              numa, /*owner=*/&g, /*token=*/&pc, np, sched,
              [&](std::size_t pi) {
                return numa.domain_of_partition(static_cast<part_t>(pi), np);
              },
              [&](std::size_t pi) {
                if (cancel != nullptr && cancel->should_stop())
                  return std::uint64_t{0};
                const auto& part = pc.part(static_cast<part_t>(pi));
                const vid_t nloc = part.num_local_vertices();
                for (vid_t i = 0; i < nloc; ++i) {
                  const vid_t s = part.vertex_ids[i];
                  if (!in.get(s)) continue;
                  for (eid_t j = part.offsets[i]; j < part.offsets[i + 1];
                       ++j) {
                    const vid_t d = part.targets[j];
                    if (op.cond(d) && op.update(s, d, part.weights[j]))
                      mark(d);
                  }
                }
                return static_cast<std::uint64_t>(part.num_edges());
              });
        });
  } else {
    // Flattened (partition, local-vertex chunk) work items — cached at
    // layout build time — so partitions much larger than others still
    // spread across threads.
    const auto& items = pc.chunks();
    counts = affine_for(
        numa, /*owner=*/&g, /*token=*/&items, items.size(), sched,
        [&](std::size_t w) {
          return numa.domain_of_partition(items[w].part, np);
        },
        [&](std::size_t w) {
          if (cancel != nullptr && cancel->should_stop()) return std::uint64_t{0};
          const partition::PcsrChunk& it = items[w];
          const auto& part = pc.part(it.part);
          for (vid_t i = it.begin; i < it.end; ++i) {
            const vid_t s = part.vertex_ids[i];
            if (!in.get(s)) continue;
            for (eid_t j = part.offsets[i]; j < part.offsets[i + 1]; ++j) {
              const vid_t d = part.targets[j];
              if (op.cond(d) && op.update_atomic(s, d, part.weights[j]))
                next.set_atomic(d);
            }
          }
          return static_cast<std::uint64_t>(
              part.offsets[it.end] - part.offsets[it.begin]);
        });
  }
  if (affinity != nullptr) affinity->merge(counts);

  Frontier out = Frontier::from_bitmap(std::move(next));
  out.recount(&g.csr());
  return out;
}

}  // namespace grind::engine
