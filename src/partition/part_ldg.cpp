// Linear Deterministic Greedy (LDG) streaming vertex partitioner
// (Stanton & Kliot, KDD'12; the strategy ROADMAP item 1 names).
//
// Vertices arrive in internal-ID order; each is placed into the partition
// maximising  |N(v) ∩ P_p| · (1 − |P_p| / C)  over partitions below the
// capacity C = ⌈slack·n/P⌉: neighbour affinity, linearly penalised as a
// partition fills.  Neighbours count both directions (out via CSR, in via
// CSC) restricted to already-placed vertices, which is exactly the
// information a one-pass stream has.  Ties break to the least-loaded
// partition, then the smallest index — fully deterministic.
#include <algorithm>
#include <cmath>
#include <vector>

#include "graph/csr.hpp"
#include "partition/registration.hpp"
#include "partition/registry.hpp"

namespace grind::partition {
namespace {

PartitionerDesc make_desc() {
  PartitionerDesc d;
  d.name = "ldg";
  d.title = "linear deterministic greedy streaming (Stanton-Kliot)";
  d.list_order = 40;
  d.caps.streaming = true;
  d.caps.needs_degrees = false;
  d.caps.deterministic = true;
  d.schema = {algorithms::spec_real(
      "slack", "capacity slack: each partition holds at most slack*n/P "
               "vertices",
      1.1, 1.0, 16.0)};
  d.run = [](const graph::EdgeList& el, part_t num_partitions,
             const PartitionOptions&, const algorithms::Params& params) {
    const double slack = params.get_real("slack");
    const vid_t n = el.num_vertices();
    std::vector<part_t> assignment(n);
    if (n == 0) return assignment;

    const graph::Csr out = graph::Csr::build(el, graph::Adjacency::kOut);
    const graph::Csr in = out.transpose();

    const vid_t cap = std::max<vid_t>(
        1, static_cast<vid_t>(std::ceil(
               slack * static_cast<double>(n) / num_partitions)));

    std::vector<vid_t> size(num_partitions, 0);
    std::vector<vid_t> nbr_count(num_partitions, 0);
    std::vector<part_t> touched;
    std::vector<unsigned char> placed(n, 0);
    touched.reserve(64);

    for (vid_t v = 0; v < n; ++v) {
      const auto tally = [&](vid_t u) {
        if (!placed[u]) return;
        const part_t p = assignment[u];
        if (nbr_count[p] == 0) touched.push_back(p);
        ++nbr_count[p];
      };
      for (vid_t u : out.neighbors(v)) tally(u);
      for (vid_t u : in.neighbors(v)) tally(u);

      // Best affinity score among partitions with room; a fresh stream
      // (no placed neighbours) degenerates to least-loaded placement.
      part_t best = num_partitions;  // sentinel: none chosen yet
      double best_score = -1.0;
      for (part_t p = 0; p < num_partitions; ++p) {
        if (size[p] >= cap) continue;
        const double score =
            static_cast<double>(nbr_count[p]) *
            (1.0 - static_cast<double>(size[p]) / static_cast<double>(cap));
        if (best == num_partitions || score > best_score ||
            (score == best_score && size[p] < size[best]))
          best = p, best_score = score;
      }
      // cap·P ≥ n by construction, so a slot always exists.
      assignment[v] = best;
      ++size[best];
      placed[v] = 1;

      for (part_t p : touched) nbr_count[p] = 0;
      touched.clear();
    }
    return assignment;
  };
  return d;
}

const RegisterPartitioner kRegisterLdg(make_desc());

}  // namespace
}  // namespace grind::partition
