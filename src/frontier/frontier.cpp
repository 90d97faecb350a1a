#include "frontier/frontier.hpp"

#include <algorithm>
#include <numeric>

#include "engine/workspace.hpp"
#include "sys/parallel.hpp"

namespace grind {

Frontier Frontier::empty(vid_t n) {
  Frontier f;
  f.n_ = n;
  return f;
}

Frontier Frontier::single(vid_t n, vid_t v, const graph::Csr* out) {
  Frontier f;
  f.n_ = n;
  f.sparse_.push_back(v);
  f.num_active_ = 1;
  f.out_degree_ = out != nullptr ? out->degree(v) : 0;
  return f;
}

Frontier Frontier::all(vid_t n, const graph::Csr* out) {
  Frontier f;
  f.n_ = n;
  f.dense_rep_ = true;
  // grind-lint: allow(kernel-unpooled-scratch) a caller-owned seed frontier,
  // not traversal scratch; no workspace is in play here.
  f.dense_ = Bitmap(n);
  f.dense_.set_all();
  f.num_active_ = n;
  f.out_degree_ = out != nullptr ? out->num_edges() : 0;
  return f;
}

Frontier Frontier::from_vertices(vid_t n, std::vector<vid_t> verts,
                                 const graph::Csr* out) {
  Frontier f;
  f.n_ = n;
  f.sparse_ = std::move(verts);
  f.recount(out);
  return f;
}

Frontier Frontier::from_thread_slots(
    vid_t n, const std::vector<engine::ThreadSlot>& slots, std::size_t nt,
    engine::TraversalWorkspace& ws) {
  std::size_t active = 0;
  eid_t degree = 0;
  for (std::size_t t = 0; t < nt; ++t) {
    active += slots[t].list.size();
    degree += slots[t].degree;
  }
  Frontier f;
  f.n_ = n;
  f.sparse_ = ws.acquire_vertex_list(active);
  for (std::size_t t = 0; t < nt; ++t)
    f.sparse_.insert(f.sparse_.end(), slots[t].list.begin(),
                     slots[t].list.end());
  f.set_stats(static_cast<vid_t>(active), degree);
  return f;
}

Frontier Frontier::from_bitmap(Bitmap bits) {
  Frontier f;
  f.n_ = static_cast<vid_t>(bits.size());
  f.dense_rep_ = true;
  f.dense_ = std::move(bits);
  f.num_active_ = static_cast<vid_t>(f.dense_.count());
  return f;
}

bool Frontier::contains(vid_t v) const {
  if (dense_rep_) return dense_.get(v);
  return std::find(sparse_.begin(), sparse_.end(), v) != sparse_.end();
}

void Frontier::to_dense(engine::TraversalWorkspace& ws) {
  if (dense_rep_) return;
  dense_ = ws.acquire_bitmap(n_);
  // Sparse lists are small by definition; serial scatter is fine and avoids
  // atomic traffic.
  for (vid_t v : sparse_) dense_.set(v);
  ws.recycle_vertex_list(std::move(sparse_));
  sparse_ = {};
  dense_rep_ = true;
}

void Frontier::to_sparse(engine::TraversalWorkspace& ws) {
  if (!dense_rep_) return;
  // Parallel gather: count bits per word-block, prefix-sum, then write.
  const std::size_t words = dense_.num_words();
  constexpr std::size_t kBlock = 512;  // words per block
  const std::size_t blocks = (words + kBlock - 1) / kBlock;
  std::vector<std::size_t>& block_counts = ws.scratch_counts(blocks);
  std::vector<std::size_t>& block_offsets = ws.scratch_offsets(blocks);
  const std::uint64_t* w = dense_.words();
  parallel_for(0, blocks, [&](std::size_t b) {
    std::size_t c = 0;
    const std::size_t lo = b * kBlock, hi = std::min(words, lo + kBlock);
    for (std::size_t i = lo; i < hi; ++i) c += std::popcount(w[i]);
    block_counts[b] = c;
  });
  const std::size_t total =
      exclusive_scan(block_counts.data(), block_offsets.data(), blocks);
  if (sparse_.capacity() == 0) sparse_ = ws.acquire_vertex_list(total);
  sparse_.resize(total);
  parallel_for(0, blocks, [&](std::size_t b) {
    std::size_t cursor = block_offsets[b];
    const std::size_t lo = b * kBlock, hi = std::min(words, lo + kBlock);
    for (std::size_t i = lo; i < hi; ++i) {
      std::uint64_t word = w[i];
      while (word != 0) {
        const int bit = std::countr_zero(word);
        sparse_[cursor++] =
            static_cast<vid_t>(i * 64 + static_cast<std::size_t>(bit));
        word &= word - 1;
      }
    }
  });
  ws.recycle_bitmap(std::move(dense_));
  dense_ = Bitmap();
  dense_rep_ = false;
  num_active_ = static_cast<vid_t>(total);
}

void Frontier::into_workspace(engine::TraversalWorkspace& ws) {
  if (dense_rep_) {
    ws.recycle_bitmap(std::move(dense_));
  }
  ws.recycle_vertex_list(std::move(sparse_));
  dense_ = Bitmap();
  sparse_ = {};
  dense_rep_ = false;
  num_active_ = 0;
  out_degree_ = 0;
}

void Frontier::recount(const graph::Csr* out) {
  num_active_ = dense_rep_ ? static_cast<vid_t>(dense_.count())
                           : static_cast<vid_t>(sparse_.size());
  if (out != nullptr) out_degree_ = degree_sum(*out);
}

eid_t Frontier::degree_sum(const graph::Csr& adj) const {
  if (!dense_rep_) {
    return parallel_reduce_sum<eid_t>(0, sparse_.size(), [&](std::size_t i) {
      return adj.degree(sparse_[i]);
    });
  }
  const std::uint64_t* w = dense_.words();
  return parallel_reduce_sum<eid_t>(0, dense_.num_words(), [&](std::size_t i) {
    eid_t sum = 0;
    std::uint64_t word = w[i];
    while (word != 0) {
      const int bit = std::countr_zero(word);
      sum += adj.degree(
          static_cast<vid_t>(i * 64 + static_cast<std::size_t>(bit)));
      word &= word - 1;
    }
    return sum;
  });
}

}  // namespace grind
