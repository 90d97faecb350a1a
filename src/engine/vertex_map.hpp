// Vertex-map operators of the Ligra-compatible API: apply a function to
// every active vertex, optionally producing a filtered output frontier.
#pragma once

#include <omp.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "engine/traverse_csr.hpp"
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

/// Apply fn(v) to every active vertex of f where fn(v) reads v's row of
/// `adj`, as a pull does: the work is split by edge weight, not by vertex
/// count.  Once f's cached traversal_weight() (|F| + Σ deg⁺) reaches
/// kSerialCutoff, one parallel region cuts f into edge-balanced slices
/// with the sparse push's owned_slice (traverse_csr.hpp): a list by
/// entries, a bitmap by words.  vertex_foreach cuts by vertex count, so
/// its 2 048-vertex cutoff keeps a lattice level (~1 k vertices, ~4 k
/// edges) serial, and its static word split leaves a few high-degree
/// vertices on one thread.
template <typename Fn>
void vertex_foreach_by_edges(const Frontier& f, const graph::Csr& adj,
                             Fn&& fn) {
  const auto nt = static_cast<std::size_t>(num_threads());
  if (f.traversal_weight() < kSerialCutoff || nt == 1) {
    f.for_each(fn);
    return;
  }
  const bool dense = f.is_dense();
  const std::uint64_t* words = dense ? f.bitmap().words() : nullptr;
  const auto verts = f.vertices();
  // Calls g(v) for the active vertices of items [lo, hi): words of a
  // bitmap, entries of a list.
  const auto each = [&](std::size_t lo, std::size_t hi, auto&& g) {
    if (!dense) {
      for (std::size_t i = lo; i < hi; ++i) g(verts[i]);
      return;
    }
    for (std::size_t w = lo; w < hi; ++w) {
      for (std::uint64_t word = words[w]; word != 0; word &= word - 1)
        g(static_cast<vid_t>(w * 64 +
                             static_cast<std::size_t>(std::countr_zero(word))));
    }
  };
  const std::size_t items = dense ? f.bitmap().num_words() : verts.size();
  std::vector<eid_t> block_weight(kSliceBlocksPerThread * nt);
#pragma omp parallel num_threads(static_cast<int>(nt))
  {
    // The team may be smaller than nt; the split uses the team it got.
    const auto team = static_cast<std::size_t>(omp_get_num_threads());
    const auto t = static_cast<std::size_t>(omp_get_thread_num());
    const std::size_t blocks = kSliceBlocksPerThread * team;
    for (std::size_t b = t * kSliceBlocksPerThread;
         b < (t + 1) * kSliceBlocksPerThread; ++b) {
      eid_t weight = 0;
      each(items * b / blocks, items * (b + 1) / blocks,
           [&](vid_t v) { weight += 1 + adj.degree(v); });
      block_weight[b] = weight;
    }
#pragma omp barrier
    const auto [begin, end] =
        owned_slice(block_weight.data(), blocks, items, t, team);
    each(begin, end, fn);
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
