#include "baselines/chunked.hpp"

#include <algorithm>

namespace grind::baselines {

namespace {
vid_t round_up_64(vid_t v, vid_t n) {
  return std::min<vid_t>(((v + 63) / 64) * 64, n);
}
}  // namespace

std::vector<VertexRange> make_uniform_chunks(vid_t n, vid_t chunk) {
  chunk = std::max<vid_t>(64, (chunk / 64) * 64);  // multiple of 64 ≥ 64
  std::vector<VertexRange> out;
  for (vid_t v = 0; v < n; v += chunk)
    out.push_back({v, std::min<vid_t>(n, v + chunk)});
  if (out.empty()) out.push_back({0, n});
  return out;
}

std::vector<VertexRange> make_edge_balanced_chunks(const graph::Csr& adj,
                                                   eid_t target_edges) {
  const vid_t n = adj.num_vertices();
  const auto offsets = adj.offsets();
  std::vector<VertexRange> out;
  if (n == 0) {
    out.push_back({0, 0});
    return out;
  }
  target_edges = std::max<eid_t>(1, target_edges);
  vid_t begin = 0;
  while (begin < n) {
    // Smallest end whose cumulative edge count reaches the target.
    const eid_t goal = offsets[begin] + target_edges;
    const auto it =
        std::lower_bound(offsets.begin() + begin + 1, offsets.end(), goal);
    vid_t end = static_cast<vid_t>(it - offsets.begin());
    end = round_up_64(std::max<vid_t>(end, begin + 1), n);
    out.push_back({begin, end});
    begin = end;
  }
  return out;
}

std::vector<VertexRange> make_partitioned_uniform_chunks(vid_t n, int parts,
                                                         vid_t chunk) {
  std::vector<VertexRange> out;
  if (parts < 1) parts = 1;
  chunk = std::max<vid_t>(64, (chunk / 64) * 64);
  vid_t prev = 0;
  for (int p = 1; p <= parts; ++p) {
    const vid_t bound =
        p == parts
            ? n
            : round_up_64(static_cast<vid_t>(
                              (static_cast<std::uint64_t>(n) * p) /
                              static_cast<std::uint64_t>(parts)),
                          n);
    for (vid_t v = prev; v < bound; v += chunk)
      out.push_back({v, std::min<vid_t>(bound, v + chunk)});
    prev = bound;
  }
  if (out.empty()) out.push_back({0, n});
  return out;
}

bool ligra_is_dense(eid_t weight, eid_t m) {
  return static_cast<double>(weight) > static_cast<double>(m) / 20.0;
}

}  // namespace grind::baselines
