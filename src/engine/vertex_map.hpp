// Vertex-map operators of the Ligra-compatible API: apply a function to
// every active vertex, optionally producing a filtered output frontier.
#pragma once

#include <omp.h>

#include "engine/workspace.hpp"
#include "frontier/frontier.hpp"
#include "graph/graph.hpp"
#include "sys/bitmap.hpp"
#include "sys/parallel.hpp"

namespace grind::engine {

/// Apply fn(v) to every active vertex of f (no output frontier).
template <typename Fn>
void vertex_foreach(const Frontier& f, Fn&& fn) {
  if (f.is_dense()) {
    const Bitmap& bits = f.bitmap();
    parallel_for(0, bits.num_words(), [&](std::size_t w) {
      std::uint64_t word = bits.words()[w];
      while (word != 0) {
        const int b = std::countr_zero(word);
        fn(static_cast<vid_t>(w * 64 + static_cast<std::size_t>(b)));
        word &= word - 1;
      }
    });
  } else {
    const auto verts = f.vertices();
    parallel_for(0, verts.size(), [&](std::size_t i) { fn(verts[i]); });
  }
}

/// Apply fn(v) to every vertex of the graph (frontier-independent).
template <typename Fn>
void vertex_foreach_all(vid_t n, Fn&& fn) {
  parallel_for(0, n, [&](std::size_t v) { fn(static_cast<vid_t>(v)); });
}

/// Apply fn(v) -> bool to every active vertex; the output frontier contains
/// the vertices for which fn returned true.  The representation of the
/// output matches the input's.  The output bitmap or list and the
/// per-thread slots come from `ws`'s pools, so an iterative caller that
/// recycles its frontiers allocates nothing at steady state.
template <typename Fn>
Frontier vertex_map(const graph::Graph& g, const Frontier& f, Fn&& fn,
                    TraversalWorkspace& ws) {
  if (f.is_dense()) {
    const Bitmap& bits = f.bitmap();
    Bitmap next = ws.acquire_bitmap(f.num_vertices());
    // Word-parallel: each word is written by exactly one thread.
    parallel_for(0, bits.num_words(), [&](std::size_t w) {
      std::uint64_t word = bits.words()[w];
      std::uint64_t out_word = 0;
      while (word != 0) {
        const int b = std::countr_zero(word);
        const auto v = static_cast<vid_t>(w * 64 + static_cast<std::size_t>(b));
        if (fn(v)) out_word |= 1ULL << b;
        word &= word - 1;
      }
      next.words()[w] = out_word;
    });
    Frontier out = Frontier::from_bitmap(std::move(next));
    out.recount(&g.csr());
    return out;
  }

  const auto verts = f.vertices();
  const graph::Csr& out_adj = g.csr();
  const auto nt = static_cast<std::size_t>(num_threads());
  auto& slots = ws.thread_slots(nt, f.num_vertices());
#pragma omp parallel num_threads(static_cast<int>(nt))
  {
    ThreadSlot& slot = slots[static_cast<std::size_t>(omp_get_thread_num())];
    eid_t degree = 0;
#pragma omp for schedule(static) nowait
    for (std::size_t i = 0; i < verts.size(); ++i) {
      if (fn(verts[i])) {
        slot.list.push_back(verts[i]);
        degree += out_adj.degree(verts[i]);
      }
    }
    slot.degree = degree;
  }
  return Frontier::from_thread_slots(f.num_vertices(), slots, nt, ws,
                                     /*id_order=*/false);
}

}  // namespace grind::engine
